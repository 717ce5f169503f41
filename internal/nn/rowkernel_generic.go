//go:build !amd64

package nn

// The Go loops in rowkernel.go are the only implementation off amd64; the
// vector leaves exist so the dispatch compiles, and compile away.
const useVector = false

func addScaledBlocks(acc, coef []float64, rows *float64, stride int) int {
	panic("nn: no vector kernels on this architecture")
}

func dotRows4(dst, q []float64, rows *float64, stride int, scale float64) int {
	panic("nn: no vector kernels on this architecture")
}

func expRows4(p []float64, mx float64) int { panic("nn: no vector kernels on this architecture") }

func divRows4(p []float64, d float64) int { panic("nn: no vector kernels on this architecture") }
