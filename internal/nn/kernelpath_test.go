package nn

import (
	_ "unsafe" // go:linkname
)

// tensorUseVector is internal/tensor's kernel dispatch variable. It is
// unexported there on purpose (no knob); the row-form tests reach it by
// linkname to run the same expected values over both kernel paths.
//
//go:linkname tensorUseVector aero/internal/tensor.useVector
var tensorUseVector bool

// pathRunner is what *testing.T and *testing.B share.
type pathRunner[T any] interface {
	Run(name string, f func(T)) bool
	Skip(args ...any)
}

// eachKernelPath runs f twice: on tensor's vector leaves (skipped where its
// init probe said no) and on its Go loops.
func eachKernelPath[T pathRunner[T]](t T, f func(T)) {
	probed := tensorUseVector
	defer func() { tensorUseVector = probed }()
	t.Run("vector", func(t T) {
		if !probed {
			t.Skip("internal/tensor's probe chose the Go loops on this host: nothing to compare")
		}
		f(t)
	})
	tensorUseVector = false
	t.Run("scalar", f)
}
