//go:build !amd64

package core

import "testing"

// eachKernelPath runs f on internal/nn's Go loops, the only path off amd64.
func eachKernelPath(t *testing.T, f func(t *testing.T)) { t.Run("scalar", f) }
