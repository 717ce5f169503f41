package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarStd(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("mean %v", Mean(xs))
	}
	if math.Abs(Var(xs)-1.25) > 1e-12 {
		t.Fatalf("var %v", Var(xs))
	}
	if Mean(nil) != 0 || Var(nil) != 0 {
		t.Fatal("empty input must give 0")
	}
}

func TestMeanStdMatchesTwoPass(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(50))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		m, s := MeanStd(xs)
		return math.Abs(m-Mean(xs)) < 1e-9 && math.Abs(s-math.Sqrt(Var(xs))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("extremes wrong")
	}
	if Median(xs) != 3 {
		t.Fatalf("median %v", Median(xs))
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("q25 = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 2+rng.Intn(40))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		q1 := 0.3 + 0.2*rng.Float64()
		q2 := q1 + 0.3*rng.Float64()
		return Quantile(xs, q1) <= Quantile(xs, q2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// quantileSortedRef is the sort-based quantile Quantile computed before it
// selected: sort a copy, then interpolate between neighbours.
func quantileSortedRef(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TestQuantileMatchesSortRef holds the selection to the sort: every order
// statistic Select places, and every quantile, is the sorted slice's, bit
// for bit, over ties, NaN (sorted first), ±Inf, presorted and reversed
// input, and repeated calls on one slice (the partial order a previous
// selection left); Quantile leaves its input alone.
func TestQuantileMatchesSortRef(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	draws := []func(i, n int) float64{
		func(int, int) float64 { return rng.NormFloat64() },
		func(int, int) float64 { return float64(rng.Intn(4)) },
		func(i, _ int) float64 { return float64(i) },
		func(i, n int) float64 { return float64(n - i) },
		func(int, int) float64 {
			switch rng.Intn(8) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			}
			return rng.ExpFloat64()
		},
	}
	for n := 1; n <= 300; n += 1 + n/10 {
		for di, draw := range draws {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = draw(i, n)
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for range 4 {
				k := rng.Intn(n)
				sel := append([]float64(nil), xs...)
				Select(sel, k)
				if math.Float64bits(sel[k]) != math.Float64bits(sorted[k]) {
					t.Fatalf("draw %d n %d: Select put %v at %d, sort %v", di, n, sel[k], k, sorted[k])
				}
			}
			work := append([]float64(nil), xs...)
			for _, q := range []float64{0, 1, 0.5, 0.99, 0.25, rng.Float64(), 0.999, 1e-3} {
				want := quantileSortedRef(sorted, q)
				before := append([]float64(nil), xs...)
				got := Quantile(xs, q)
				inPlace := QuantileInPlace(work, q)
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(inPlace) != math.Float64bits(want) {
					t.Fatalf("draw %d n %d q %v: Quantile %v, in place %v, sorted %v", di, n, q, got, inPlace, want)
				}
				for i := range xs {
					if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
						t.Fatalf("Quantile rewrote its input at %d", i)
					}
				}
			}
		}
	}
	if !math.IsNaN(Quantile([]float64{1, 2}, math.NaN())) {
		t.Fatal("a NaN q must give NaN")
	}
}

func TestDiff(t *testing.T) {
	got := Diff([]float64{1, 4, 9})
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("diff %v", got)
	}
	if Diff([]float64{1}) != nil {
		t.Fatal("short diff should be nil")
	}
}

func TestEWMAConstantIsFixedPoint(t *testing.T) {
	xs := []float64{5, 5, 5, 5}
	for _, v := range EWMA(xs, 0.3) {
		if v != 5 {
			t.Fatal("EWMA of constant must be constant")
		}
	}
}

func TestMovingMeanWindow(t *testing.T) {
	got := MovingMean([]float64{1, 2, 3, 4, 5}, 2)
	want := []float64{1, 1.5, 2.5, 3.5, 4.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("moving mean %v want %v", got, want)
		}
	}
}

func TestZScoreProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 3 + 2*rng.NormFloat64()
	}
	z := ZScore(xs)
	m, s := MeanStd(z)
	if math.Abs(m) > 1e-9 || math.Abs(s-1) > 1e-9 {
		t.Fatalf("zscore mean=%v std=%v", m, s)
	}
	if got := ZScore([]float64{7, 7}); got[0] != 0 || got[1] != 0 {
		t.Fatal("constant input should map to zeros")
	}
}

func TestMinMaxScale(t *testing.T) {
	got := MinMaxScale([]float64{-1, 0, 1, 2, 3}, 0, 2)
	want := []float64{0, 0, 0.5, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("minmax %v want %v", got, want)
		}
	}
	for _, v := range MinMaxScale([]float64{1, 2}, 5, 5) {
		if v != 0.5 {
			t.Fatal("degenerate range must map to 0.5")
		}
	}
}

func TestCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	if math.Abs(Correlation(a, b)-1) > 1e-12 {
		t.Fatal("perfect correlation expected")
	}
	c := []float64{8, 6, 4, 2}
	if math.Abs(Correlation(a, c)+1) > 1e-12 {
		t.Fatal("perfect anticorrelation expected")
	}
	if Correlation(a, []float64{5, 5, 5, 5}) != 0 {
		t.Fatal("constant series should give 0")
	}
}

func TestCosineSimilarity(t *testing.T) {
	if CosineSimilarity([]float64{1, 0}, []float64{2, 0}) != 1 {
		t.Fatal("parallel vectors")
	}
	if CosineSimilarity([]float64{1, 0}, []float64{0, 3}) != 0 {
		t.Fatal("orthogonal vectors")
	}
	if CosineSimilarity([]float64{0, 0}, []float64{1, 1}) != 0 {
		t.Fatal("zero vector must give 0")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		s := CosineSimilarity(a, b)
		return s >= -1-1e-12 && s <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArgmaxTopK(t *testing.T) {
	xs := []float64{3, 9, 1, 7}
	if Argmax(xs) != 1 {
		t.Fatal("argmax")
	}
	if Argmax(nil) != -1 {
		t.Fatal("argmax of empty should be -1")
	}
	top := TopKIndices(xs, 2)
	if top[0] != 1 || top[1] != 3 {
		t.Fatalf("topk %v", top)
	}
	if len(TopKIndices(xs, 10)) != 4 {
		t.Fatal("topk should clip k")
	}
}
