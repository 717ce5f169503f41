package nn

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"

	"aero/internal/tensor"
)

// guarded returns n float64s whose last byte is the last byte before a
// PROT_NONE page: a load or store past the slice faults instead of reading a
// neighbour. The Go callers of the vector leaves bounds-check once; this is
// the check on the assembly (the same helper fences the leaves themselves in
// internal/tensor's test of this name).
func guarded(t *testing.T, rng *rand.Rand, n int) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	pages := (n*8+page-1)/page + 1
	mem, err := syscall.Mmap(-1, 0, (pages+1)*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test teardown: nothing to do about a failure
	if err := syscall.Mprotect(mem[pages*page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	s := unsafe.Slice((*float64)(unsafe.Pointer(&mem[pages*page-n*8])), n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// TestVectorKernelsStayInBounds is the attendRow half of the guard-page
// canary (internal/tensor holds the leaves' own): both runs of the key and
// value rings at every length and every ring head, the second run starting at
// the matrix's first byte, the first ending at its last.
func TestVectorKernelsStayInBounds(t *testing.T) {
	if !tensorUseVector {
		t.Skip("internal/tensor's probe chose the Go loops on this host: no assembly to fence")
	}
	scalarly := func(f func()) {
		tensorUseVector = false
		defer func() { tensorUseVector = true }()
		f()
	}
	rng := rand.New(rand.NewSource(43))
	for _, rows := range []int{9, 16, 21} {
		const dm, heads = 16, 2
		m := NewMultiHeadAttention("attn", dm, heads, rng)
		k := &tensor.Dense{Rows: dm, Cols: rows, Data: guarded(t, rng, dm*rows)} // key-major
		v := &tensor.Dense{Rows: rows, Cols: dm, Data: guarded(t, rng, rows*dm)}
		q := guarded(t, rng, dm)
		ctx, scores := guarded(t, rng, dm), guarded(t, rng, rows)
		want, scratch := make([]float64, dm), make([]float64, rows)
		for head := 0; head < rows; head++ {
			scalarly(func() { m.attendRow(want, scratch, q, k, v, head, 0, false) })
			m.attendRow(ctx, scores, q, k, v, head, 0, false)
			if c, ok := sameBits(ctx, want); !ok {
				t.Fatalf("rows %d head %d cell %d: vector %v != Go loops %v", rows, head, c, ctx[c], want[c])
			}
		}
	}
}
