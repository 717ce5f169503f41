package tensor

import "math"

// useVector is the kernels' one dispatch point: true when the CPU and the OS
// support AVX2 and FMA and the packed exp reproduces math.Exp bit for bit on
// a fixed table. Written once, here (tests force it off to run the Go loops
// as the oracle). The second condition is what keeps every softmax cell one
// function of its argument: ExpSumRow hands the cells its leaf declines to
// math.Exp, the pinned training and score bits were recorded from math.Exp,
// and math.Exp leaves its FMA path under GODEBUG=cpu.fma=off (a later Go
// release may change it altogether) — either way the packed replica no
// longer matches and every row, training and streaming alike, goes back to
// the Go loops.
var useVector = cpuHasAVX2FMA() && packedExpMatchesMathExp()

//go:noescape
func addScaledBlocks(acc, coef []float64, rows *float64, stride int) int

//go:noescape
func dotRows4(dst, q []float64, rows *float64, stride int, scale float64) int

//go:noescape
func expRows4(p []float64, mx float64) int

//go:noescape
func divRows4(p []float64, d float64) int

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func cpuHasAVX2FMA() bool {
	const (
		fma     = 1 << 12 // leaf 1 ECX
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5 // leaf 7 EBX
		ymm     = 0x6    // XCR0: the OS saves XMM and YMM state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&ymm != ymm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// packedExpMatchesMathExp is the self-check: a fixed table of 256 arguments
// spread over [−708, 0] with every mantissa bit in play, through the packed
// exp and through math.Exp. The latter's FMA and non-FMA paths differ in the
// last bit on about one argument in eleven, and on 18 of these.
func packedExpMatchesMathExp() bool {
	want := make([]float64, 256)
	for i := range want {
		want[i] = -708 * math.Sqrt(float64(i)/255)
	}
	got := append([]float64(nil), want...)
	if expRows4(got, 0) != len(got) {
		return false
	}
	for i, x := range want {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}
