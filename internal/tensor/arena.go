package tensor

// Arena is a positional scratch allocator for Dense buffers. It serves
// repeated executions of the *same* computation: the first pass allocates,
// every later pass (after Reset) re-hands out the identical buffers in call
// order, so a fixed-shape forward pass becomes allocation-free in steady
// state. Shapes may differ between passes; a buffer is regrown only when
// the requested element count exceeds its capacity.
//
// An Arena is not safe for concurrent use; give each goroutine its own.
type Arena struct {
	bufs []*Dense
	pos  int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Get returns a zeroed r×c buffer, reusing the allocation handed out at the
// same position of the previous pass when it is large enough. The buffer is
// valid until the next Reset.
func (a *Arena) Get(r, c int) *Dense {
	d := a.Take(r, c)
	clear(d.Data)
	return d
}

// Take is Get without the clearing, for a caller that writes every cell
// before it reads any: a reused buffer holds whatever the previous pass left
// in it.
func (a *Arena) Take(r, c int) *Dense {
	need := r * c
	if a.pos < len(a.bufs) {
		d := a.bufs[a.pos]
		a.pos++
		if cap(d.Data) >= need {
			d.Rows, d.Cols, d.Data = r, c, d.Data[:need]
			return d
		}
		nd := New(r, c)
		a.bufs[a.pos-1] = nd
		return nd
	}
	d := New(r, c)
	a.bufs = append(a.bufs, d)
	a.pos++
	return d
}

// Reset rewinds the arena so the next pass reuses all buffers. Every Dense
// previously returned by Get is invalidated.
func (a *Arena) Reset() { a.pos = 0 }

// Len reports how many buffers the arena currently owns (useful in tests).
func (a *Arena) Len() int { return len(a.bufs) }
