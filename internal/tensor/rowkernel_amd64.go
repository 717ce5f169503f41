package tensor

import "math"

// useVector is the kernels' one dispatch point: true when the CPU and the OS
// support AVX2 and FMA and the packed exp and log reproduce math.Exp and
// math.Log bit for bit on fixed tables. Written once, here (tests force it
// off to run the Go loops as the oracle). The self-checks are what keep
// every softmax cell and every Grimshaw sum one function of its argument:
// SoftmaxRow and LogRow hand the cells their leaves decline to math.Exp and
// math.Log, the pinned training and score bits and the DSPOT thresholds
// were recorded from those, and math.Exp leaves its FMA path under
// GODEBUG=cpu.fma=off (a later Go release may change either altogether) —
// whenever a packed replica no longer matches, every row, training and
// streaming alike, goes back to the Go loops.
var useVector = cpuHasAVX2FMA() && packedExpMatchesMathExp() && packedLogMatchesMathLog()

//go:noescape
func addScaledBlocks(acc, coef []float64, rows *float64, stride int) int

//go:noescape
func affineRowsLeaf(dst, x *float64, n, in, out int, rows *float64, stride int, bias *float64, relu, residual bool)

//go:noescape
func normRows4(dst, x *float64, n, cols int, gain, bias *float64, eps float64)

//go:noescape
func dotColsLeaf(dst, q []float64, cols *float64, stride int, scale float64)

//go:noescape
func dotRows4(dst, q []float64, rows *float64, stride int, scale float64) int

//go:noescape
func softmaxRows4(p []float64) (mx, sum float64, n int)

//go:noescape
func logRows4(p []float64) int

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
// spread over [−708, 0] with every mantissa bit in play, through the softmax
// leaf and through math.Exp. The latter's FMA and non-FMA paths differ in the
// last bit on about one argument in eleven, and on 18 of these. The table's
// maximum is −0, so the leaf's cells are exp(x) itself; a 257th cell leaves
// its last group incomplete, so the leaf returns before it divides, and its
// sum must be math.Exp's results added in ascending order.
func packedExpMatchesMathExp() bool {
	xs := make([]float64, 257)
	for i := range 256 {
		xs[i] = -708 * math.Sqrt(float64(i)/255)
	}
	xs[256] = -1
	got := append([]float64(nil), xs...)
	mx, sum, n := softmaxRows4(got)
	if n != 256 || mx != 0 {
		return false
	}
	var want float64
	for i, x := range xs[:n] {
		e := math.Exp(x)
		if math.Float64bits(got[i]) != math.Float64bits(e) {
			return false
		}
		want += e
	}
	return math.Float64bits(sum) == math.Float64bits(want)
}

// packedLogMatchesMathLog is the log leaf's self-check: 256 normal arguments
// with mantissas across [1/2, 1) and exponents across the normal range, a
// group just either side of 1 and a group of exact √2/2·2ᵏ, where archLog's
// reduction chooses its branch on a tie.
func packedLogMatchesMathLog() bool {
	want := make([]float64, 256)
	for i := range want {
		want[i] = math.Ldexp(0.5+float64(i)/512, (i*331)%2041-1020)
	}
	for i := range 4 {
		want[i] = math.Ldexp(math.Sqrt2/2, 3*i-4)
		want[4+i] = math.Nextafter(1, float64(2*(i%2))) + float64(i/2)*0x1p-40
	}
	got := append([]float64(nil), want...)
	if logRows4(got) != len(got) {
		return false
	}
	for i, x := range want {
		if math.Float64bits(got[i]) != math.Float64bits(math.Log(x)) {
			return false
		}
	}
	return true
}
