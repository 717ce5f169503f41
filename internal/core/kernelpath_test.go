package core

import (
	"testing"
	_ "unsafe" // go:linkname
)

// tensorUseVector is internal/tensor's kernel dispatch variable. It is
// unexported there on purpose (no knob); the identity tests reach it by
// linkname to run the same expected values over both kernel paths.
//
//go:linkname tensorUseVector aero/internal/tensor.useVector
var tensorUseVector bool

// eachKernelPath runs f twice: on tensor's vector leaves (skipped where its
// init probe said no — every host but an AVX2+FMA amd64) and on its Go loops.
func eachKernelPath(t *testing.T, f func(t *testing.T)) {
	probed := tensorUseVector
	defer func() { tensorUseVector = probed }()
	t.Run("vector", func(t *testing.T) {
		if !probed {
			t.Skip("internal/tensor's probe chose the Go loops on this host: nothing to compare")
		}
		f(t)
	})
	tensorUseVector = false
	t.Run("scalar", f)
}
