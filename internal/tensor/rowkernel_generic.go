//go:build !amd64

package tensor

// The Go loops in rowkernel.go are the only implementation off amd64:
// useVector is never true here (a variable only so tests dispatch the same
// way on every architecture), and the vector leaves exist so the dispatch
// compiles.
var useVector = false

func addScaledBlocks(acc, coef []float64, rows *float64, stride int) int {
	panic("tensor: no vector kernels on this architecture")
}

func affineRowsLeaf(dst, x *float64, n, in, out int, rows *float64, stride int, bias *float64, relu, residual bool) {
	panic("tensor: no vector kernels on this architecture")
}

func normRows4(dst, x *float64, n, cols int, gain, bias *float64, eps float64) {
	panic("tensor: no vector kernels on this architecture")
}

func dotColsLeaf(dst, q []float64, cols *float64, stride int, scale float64) {
	panic("tensor: no vector kernels on this architecture")
}

func dotRows4(dst, q []float64, rows *float64, stride int, scale float64) int {
	panic("tensor: no vector kernels on this architecture")
}

func softmaxRows4(p []float64) (mx, sum float64, n int) {
	panic("tensor: no vector kernels on this architecture")
}

func logRows4(p []float64) int { panic("tensor: no vector kernels on this architecture") }
