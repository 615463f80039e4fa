package spill

import "math/bits"

// Arena is a chunked byte arena, the sink a Buffer's stream-mode wio.Writer
// serializes into. It grows by a chunk, never by copying one. Chunk k holds
// 1<<(minShift+k) bytes up to the ceiling, 1<<maxShift. What is written
// comes in units — a key or a value of a Buffer — and Mark says where the
// next one starts: a unit never straddles two chunks. When one does not
// fit, the bytes it has so far move to the next chunk, and a unit larger
// than the ceiling gets a chunk of its own size. No chunk is empty: a unit
// that had a chunk to itself and outgrew it replaces that chunk. A byte's
// offset is where it lies in the chunks taken end to end.
//
// The arena keeps its chunks across Reset, so whoever pools the arena's
// owner pools them with it. Reset drops a chunk above the ceiling, and a
// chunk handed over (HandOver) is forgotten at once: it is never reused and
// never poisoned.
type Arena struct {
	chunks             [][]byte // the arena; those before cur as long as what they hold, those after kept from before
	starts             []int    // each chunk's offset
	cur                int
	buf                []byte // chunks[cur] as written so far, here so that Write appends to a field
	mark               int    // where in buf the unit being written starts
	minShift, maxShift int
}

// NewArena returns an empty arena whose chunks climb from 1<<minShift bytes
// to 1<<maxShift.
func NewArena(minShift, maxShift int) Arena { return Arena{minShift: minShift, maxShift: maxShift} }

// Write implements io.Writer; it never fails.
func (a *Arena) Write(p []byte) (int, error) {
	if len(p) > cap(a.buf)-len(a.buf) {
		a.overflow(len(p))
	}
	a.buf = append(a.buf, p...) // within capacity: never reallocates
	return len(p), nil
}

// Grow makes room for n more bytes of the unit being written, as
// bytes.Buffer's Grow does: a writer about to emit a large body in pieces
// (wio.Writer's WriteFloat64s) calls it first, so the unit moves to a chunk
// that holds all of it once instead of outgrowing one chunk after another.
func (a *Arena) Grow(n int) {
	if n > cap(a.buf)-len(a.buf) {
		a.overflow(n)
	}
}

// overflow makes room for need more bytes of the unit being written by
// moving it to the next chunk: the ladder's size there, or the power of two
// that holds the unit if that is larger — so a unit that outgrows chunk
// after chunk is copied at most twice its length in all. A chunk kept from
// before is reused when it has that size.
func (a *Arena) overflow(need int) {
	unit := a.buf[a.mark:]
	rung, i, start := 0, 0, 0 // the ladder's rung, the chunk the unit moves to and its offset
	if a.buf != nil {
		rung, i, start = a.cur+1, a.cur+1, a.starts[a.cur]+a.mark
		if a.mark == 0 {
			i = a.cur // the unit had the chunk to itself and outgrew it
		} else {
			a.chunks[a.cur] = a.buf[:a.mark]
		}
	}
	size := 1 << max(min(a.minShift+rung, a.maxShift), bits.Len(uint(len(unit)+need-1)))
	if i == len(a.chunks) {
		a.chunks, a.starts = append(a.chunks, nil), append(a.starts, 0)
	}
	c := a.chunks[i]
	if cap(c) != size {
		c = make([]byte, 0, size)
	}
	a.chunks[i], a.starts[i] = c, start
	a.buf = append(c[:0], unit...)
	a.cur, a.mark = i, 0
}

// Mark starts the next unit: what is written so far stays in its chunk.
func (a *Arena) Mark() { a.mark = len(a.buf) }

// Len returns the offset of the next byte written.
func (a *Arena) Len() int {
	if a.buf == nil {
		return 0
	}
	return a.starts[a.cur] + len(a.buf)
}

// Unit returns the offset and length of what was written since the last Mark.
func (a *Arena) Unit() (off, n int) {
	n = len(a.buf) - a.mark
	return a.Len() - n, n
}

// Rewind drops every byte from offset off, which Len returned, on: the next
// write goes there.
func (a *Arena) Rewind(off int) {
	if off == 0 {
		a.cur, a.buf, a.mark = 0, nil, 0
		return
	}
	for off <= a.starts[a.cur] {
		a.cur--
	}
	a.buf = a.chunks[a.cur][:off-a.starts[a.cur]]
	a.mark = len(a.buf)
}

// Chunks returns the chunks that hold bytes, in order, each as long as what
// it holds: the arena's bytes. They are valid until the next Reset.
func (a *Arena) Chunks() [][]byte {
	if len(a.buf) == 0 {
		return a.chunks[:a.cur]
	}
	a.chunks[a.cur] = a.buf
	return a.chunks[:a.cur+1]
}

// HandOver forgets chunk i if b is its very bytes, not a copy of them: they
// are b's holder's from then on, and the arena takes a new chunk in their
// place.
func (a *Arena) HandOver(i int, b []byte) {
	if i >= len(a.chunks) {
		return
	}
	if c := a.chunks[i]; len(c) > 0 && len(b) > 0 && &c[0] == &b[0] {
		a.chunks[i] = nil
	}
}

// Reset empties the arena. Chunks above the ceiling are dropped, the rest
// kept; under PoisonRecycledBlocks every chunk written since the last reset
// is overwritten first.
func (a *Arena) Reset() {
	written := 0
	if a.buf != nil && PoisonRecycledBlocks.Load() {
		written = a.cur + 1
	}
	for i, c := range a.chunks {
		if i < written {
			poisonBytes(c[:cap(c)])
		}
		if cap(c) > 1<<a.maxShift {
			c = nil
		}
		a.chunks[i] = c[:0]
	}
	a.cur, a.buf, a.mark = 0, nil, 0
}
