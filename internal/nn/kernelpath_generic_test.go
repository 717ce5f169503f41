//go:build !amd64

package nn

type pathRunner[T any] interface {
	Run(name string, f func(T)) bool
}

// eachKernelPath runs f on the Go loops, the only path off amd64.
func eachKernelPath[T pathRunner[T]](t T, f func(T)) { t.Run("scalar", f) }
