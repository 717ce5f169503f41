package tensor

// pathRunner is what *testing.T and *testing.B share.
type pathRunner[T any] interface {
	Run(name string, f func(T)) bool
	Skip(args ...any)
}

const noVector = "no AVX2+FMA, or the packed exp does not reproduce math.Exp here: the Go loops are the only path"

// scalarly runs f on the Go loops.
func scalarly(f func()) {
	probed := useVector
	useVector = false
	defer func() { useVector = probed }()
	f()
}

// eachKernelPath runs f twice: on the vector leaves (skipped where the init
// probe said no) and on the Go loops, forced through useVector.
func eachKernelPath[T pathRunner[T]](t T, f func(T)) {
	probed := useVector
	defer func() { useVector = probed }()
	t.Run("vector", func(t T) {
		if !probed {
			t.Skip(noVector)
		}
		f(t)
	})
	useVector = false
	t.Run("scalar", f)
}
