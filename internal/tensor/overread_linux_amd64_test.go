package tensor

import (
	"math"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n float64s whose last byte is the last byte before a
// PROT_NONE page: a load or store past the slice faults instead of reading a
// neighbour. The Go callers of the vector leaves bounds-check once; this is
// the check on the assembly.
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

func TestVectorKernelsStayInBounds(t *testing.T) {
	needVector(t)
	rng := rand.New(rand.NewSource(43))

	// AddScaledRows: every accumulator width mod 8 around one, two and three
	// blocks, every coefficient count around the loop's zero case, rows
	// ending exactly where the last block of the last row does.
	for width := 8; width <= 33; width++ {
		for nCoef := 0; nCoef <= 9; nCoef++ {
			for _, stride := range []int{width, width + 5} {
				acc := guarded(t, rng, width)
				coef := guarded(t, rng, nCoef)
				nRows := 0
				if nCoef > 0 {
					nRows = (nCoef-1)*stride + width
				}
				rows := guarded(t, rng, nRows)
				want := append([]float64(nil), acc...)
				scalarly(func() { AddScaledRows(want, coef, rows, stride) })
				AddScaledRows(acc, coef, rows, stride)
				if j, ok := sameBits(acc, want); !ok {
					t.Fatalf("width %d coef %d cell %d: vector %v != Go loop %v", width, nCoef, j, acc[j], want[j])
				}
			}
		}
	}

	// DotRows: every row count mod 8 (pairs of groups, one group, remainder).
	for _, dk := range []int{4, 8, 16} {
		for n := 0; n <= 25; n++ {
			for _, stride := range []int{dk, 2 * dk} {
				dst := guarded(t, rng, n)
				q := guarded(t, rng, dk)
				nRows := 0
				if n > 0 {
					nRows = (n-1)*stride + dk
				}
				rows := guarded(t, rng, nRows)
				want := make([]float64, n)
				scalarly(func() { DotRows(want, q, rows, stride, 0.25) })
				DotRows(dst, q, rows, stride, 0.25)
				if j, ok := sameBits(dst, want); !ok {
					t.Fatalf("dk %d rows %d row %d: vector %v != Go loop %v", dk, n, j, dst[j], want[j])
				}
			}
		}
	}

	// AffineRow: every output width 0…17 (no block, one, one and a
	// remainder, two), bias and ReLU on and off, every operand ending at the
	// guard page.
	for width := 0; width <= 17; width++ {
		for _, nx := range []int{0, 1, 5} {
			for _, stride := range []int{width, width + 3} {
				for _, biasRelu := range []bool{false, true} {
					dst := guarded(t, rng, width)
					x := guarded(t, rng, nx)
					nRows := 0
					if nx > 0 {
						nRows = (nx-1)*stride + width
					}
					rows := guarded(t, rng, nRows)
					var b []float64
					if biasRelu {
						b = guarded(t, rng, width)
					}
					want := make([]float64, width)
					scalarly(func() { AffineRow(want, x, rows, stride, b, biasRelu) })
					AffineRow(dst, x, rows, stride, b, biasRelu)
					if j, ok := sameBits(dst, want); !ok {
						t.Fatalf("affine width %d x %d cell %d: vector %v != Go loops %v", width, nx, j, dst[j], want[j])
					}
				}
			}
		}
	}

	// DotCols: every column count 0…17 (no block, one, one and a remainder,
	// two), every operand ending at the guard page.
	for width := 0; width <= 17; width++ {
		for _, dk := range []int{1, 5} {
			for _, stride := range []int{width, width + 3} {
				if stride == 0 {
					continue
				}
				dst := guarded(t, rng, width)
				q := guarded(t, rng, dk)
				cols := guarded(t, rng, (dk-1)*stride+width)
				want := make([]float64, width)
				scalarly(func() { DotCols(want, q, cols, stride, 0.25) })
				DotCols(dst, q, cols, stride, 0.25)
				if j, ok := sameBits(dst, want); !ok {
					t.Fatalf("dotcols width %d dk %d cell %d: vector %v != Go loop %v", width, dk, j, dst[j], want[j])
				}
			}
		}
	}

	// AffineRows' residual form: the destination is read as well as written,
	// through the same lane masks.
	for width := 1; width <= 17; width++ {
		for _, n := range []int{1, 3} {
			const in = 5
			x := guarded(t, rng, n*in)
			w := guarded(t, rng, in*width)
			b := guarded(t, rng, width)
			dst := guarded(t, rng, n*width)
			want := append([]float64(nil), dst...)
			scalarly(func() { AffineRows(want, x, w, n, in, b, false, true) })
			AffineRows(dst, x, w, n, in, b, false, true)
			if j, ok := sameBits(dst, want); !ok {
				t.Fatalf("residual width %d rows %d cell %d: vector %v != Go loops %v", width, n, j, dst[j], want[j])
			}
		}
	}

	// NormRows: every width mod 4 around one and two registers, groups of
	// four rows and a remainder, in place and not.
	for cols := 1; cols <= 9; cols++ {
		for _, n := range []int{4, 5, 8} {
			x := guarded(t, rng, n*cols)
			gain, bias := guarded(t, rng, cols), guarded(t, rng, cols)
			dst := guarded(t, rng, n*cols)
			want := make([]float64, n*cols)
			scalarly(func() { NormRows(want, x, n, gain, bias, 1e-5) })
			NormRows(dst, x, n, gain, bias, 1e-5)
			if j, ok := sameBits(dst, want); !ok {
				t.Fatalf("norm %d rows of %d cell %d: vector %v != Go loops %v", n, cols, j, dst[j], want[j])
			}
			NormRows(x, x, n, gain, bias, 1e-5)
			if j, ok := sameBits(x, want); !ok {
				t.Fatalf("norm %d rows of %d in place, cell %d: vector %v != Go loops %v", n, cols, j, x[j], want[j])
			}
		}
	}

	// SoftmaxRow: every length mod 4, whole in range (the leaf divides) and
	// with a −Inf cell (the leaf stops short and the Go loops finish).
	for n := 0; n <= 17; n++ {
		for _, cut := range []bool{false, true} {
			row := guarded(t, rng, n)
			if cut && n > 0 {
				row[n/2] = math.Inf(-1)
			}
			want := append([]float64(nil), row...)
			scalarly(func() { SoftmaxRow(want) })
			SoftmaxRow(row)
			if j, ok := sameBits(row, want); !ok {
				t.Fatalf("softmax row of %d, cell %d: vector %v != Go loops %v", n, j, row[j], want[j])
			}
		}
	}

	// The log leaf: every length mod 4, positive arguments so that every
	// whole group is the leaf's.
	for n := 0; n <= 17; n++ {
		row := guarded(t, rng, n)
		for i, x := range row {
			row[i] = math.Abs(x) + 0x1p-20
		}
		want := append([]float64(nil), row...)
		scalarly(func() { LogRow(want) })
		LogRow(row)
		if j, ok := sameBits(row, want); !ok {
			t.Fatalf("log row of %d, cell %d: vector %v != Go loop %v", n, j, row[j], want[j])
		}
	}
}
