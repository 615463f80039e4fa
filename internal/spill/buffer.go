package spill

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"m3r/internal/wio"
)

// Buffer is a map task's serialized output toward one destination, Hadoop's
// MapOutputBuffer: a Hadoop map task's between two spills, or a budgeted
// M3R map task's toward one place, shipped as a frame (frame.go) to a remote
// one. A record's key and value go through the buffer's own stream-mode
// wio.Writer into a chunked arena, and one pointer-free kvMeta into the
// index: no heap object per record.
//
// The arena grows by a chunk, never by copying one. Chunk k holds
// 1<<(minChunkShift+k) bytes up to the ceiling; an object (a key or a value)
// that does not fit moves, the bytes it has so far with it, to the next
// chunk, as x10.OutStream's do, and one larger than the ceiling gets a chunk
// of its own size. The chunks, each as long as what it holds, are the
// objects back to back, and an object is addressed by its offset in them,
// under 2 GiB. Views are valid until the next Reset.
type Buffer struct {
	w      wio.Writer // stream mode, writing into the buffer itself
	chunks [][]byte   // the arena; those before cur are as long as what they hold
	starts []int      // where each chunk starts in the arena's bytes
	cur    int
	buf    []byte // chunks[cur] as written so far, here so that Write appends to a field
	obj    int    // where in buf the object being written starts
	meta   []kvMeta
	ends   []int                 // layOut's end of each partition in sc.recs
	sc     *scratch              // from LayOut, Ship or Decode to the next reset
	seen   map[wio.Writable]span // objects worth a back-reference, by identity
	hits   int64                 // back-references made
}

// scratch is what a buffer needs only from LayOut, Ship or Decode to its next
// reset: the views records are laid out in, partition by partition, and the
// frame. Few buffers are laid out at once, so it is pooled apart from them.
type scratch struct {
	recs []Rec
	wire []byte
}

// span locates one object's bytes: its offset in the arena's bytes (after
// Decode, in the frame's payload) and its length.
type span struct{ off, n int32 }

// kvMeta is one record: its partition and its key's and value's bytes. No
// pointer: the garbage collector does not scan the index.
type kvMeta struct {
	part int32
	k, v span
}

// Chunk sizes are powers of two: 4 KiB first, so a task with little output
// (a PageRank job's) touches little memory, then doubling to a 64 KiB
// ceiling, so a large output moves in a few dozen chunks and an object that
// does not fit strands at most the tail of one.
const (
	minChunkShift = 12
	maxChunkShift = 16
)

// identityEntryBytes is what remembering an object costs, an interface key
// and a span, rounded up: a back-reference saves no more than the bytes it
// replaces, so a 9-byte Text is never remembered; an 80 KB matrix block is.
const identityEntryBytes = 32

var scratches = sync.Pool{New: func() any { return new(scratch) }}

var buffers = sync.Pool{New: func() any {
	b := &Buffer{chunks: make([][]byte, 1), starts: make([]int, 1)} // chunk 0, not made yet
	b.w.Reset(b)
	return b
}}

// GetBuffer checks an empty buffer out of the pool. The caller releases it.
func GetBuffer() *Buffer { return buffers.Get().(*Buffer) }

// Release empties the buffer and pools it.
func (b *Buffer) Release() {
	b.Reset()
	buffers.Put(b)
}

// Reset forgets every record. Chunks above the ceiling are dropped, the rest
// kept, and the scratch goes back to its pool; under PoisonRecycledBlocks
// every chunk and the frame are overwritten first.
func (b *Buffer) Reset() {
	poison := PoisonRecycledBlocks.Load()
	for i, c := range b.chunks {
		if poison {
			poisonBytes(c[:cap(c)])
		}
		if cap(c) > 1<<maxChunkShift {
			c = nil
		}
		b.chunks[i] = c[:0]
	}
	if s := b.sc; s != nil {
		if poison {
			poisonBytes(s.wire[:cap(s.wire)])
		}
		clear(s.recs)
		s.recs, s.wire = s.recs[:0], s.wire[:0]
		scratches.Put(s)
	}
	b.meta, b.sc = b.meta[:0], nil
	b.cur, b.buf, b.obj, b.seen, b.hits = 0, nil, 0, nil, 0 // the first write takes chunks[0] back
}

// scratch checks the buffer's scratch out, once a reset.
func (b *Buffer) scratch() *scratch {
	if b.sc == nil {
		b.sc = scratches.Get().(*scratch)
	}
	return b.sc
}

// Collect serializes one record of partition p into the arena and returns
// a view of its bytes, valid until the next reset. With dedup — for a
// buffer that crosses to another place, of a map side whose emitted objects
// are never mutated (§3.2.2.3) — a key or value already in the arena, by
// identity, is indexed as a back-reference to its bytes instead of written
// again. A record whose key or value fails to serialize leaves nothing.
func (b *Buffer) Collect(p int, key, value wio.Writable, dedup bool) (Rec, error) {
	cur, end, hits := b.cur, len(b.buf), b.hits
	k, err := b.object(key, dedup)
	if err == nil {
		var v span
		if v, err = b.object(value, dedup); err == nil {
			if len(b.meta) == cap(b.meta) { // doubling: append's quarters allocate 5× the end
				b.meta = slices.Grow(b.meta, max(len(b.meta), 256))
			}
			b.meta = append(b.meta, kvMeta{part: int32(p), k: k, v: v})
			chunks, at := b.payload(), cur // where the key started, or moved on from
			return Rec{K: view(chunks, b.starts, &at, k), V: view(chunks, b.starts, &at, v)}, nil
		}
	}
	if b.cur != cur {
		b.cur, b.buf = cur, b.chunks[cur]
	}
	b.buf, b.hits = b.buf[:end], hits
	clear(b.seen) // an identity may name the bytes just dropped
	return Rec{}, err
}

// object writes v as the arena's next object, or with dedup finds it there
// already, and returns where its bytes are.
func (b *Buffer) object(v wio.Writable, dedup bool) (span, error) {
	// No lookup while nothing is remembered: one in a nil map still checks
	// that the interface key's dynamic type is hashable (runtime.mapKeyError),
	// and a buffer of small objects never remembers one.
	if dedup && b.seen != nil {
		if s, ok := b.seen[v]; ok {
			b.hits++
			return s, nil
		}
	}
	b.obj = len(b.buf)
	if err := v.WriteTo(&b.w); err != nil {
		return span{}, err
	}
	s := span{off: int32(b.starts[b.cur] + b.obj), n: int32(len(b.buf) - b.obj)}
	if dedup && s.n > identityEntryBytes {
		if b.seen == nil {
			b.seen = make(map[wio.Writable]span)
		}
		b.seen[v] = s
	}
	return s, nil
}

// Write implements io.Writer for the buffer's wio.Writer.
func (b *Buffer) Write(p []byte) (int, error) {
	if len(p) > cap(b.buf)-len(b.buf) {
		if err := b.overflow(len(p)); err != nil {
			return 0, err
		}
	}
	b.buf = append(b.buf, p...) // within capacity: never reallocates
	return len(p), nil
}

// Grow makes room for n more bytes of the current object, so a body written
// in pieces (wio.Writer's WriteFloat64s) moves once; a failure shows at the
// next Write.
func (b *Buffer) Grow(n int) {
	if n > cap(b.buf)-len(b.buf) {
		b.overflow(n)
	}
}

// overflow makes room for need more bytes of the current object by moving
// it to the next chunk: the ladder's size there, or the power of two that
// holds the object if that is larger; a chunk kept from an earlier spill is
// reused when it is large enough.
func (b *Buffer) overflow(need int) error {
	obj := b.buf[b.obj:]
	next, start := b.cur+1, 0
	if b.buf == nil {
		next = 0 // nothing written since the reset
	} else {
		b.chunks[b.cur] = b.buf[:b.obj]
		start = b.starts[b.cur] + b.obj
	}
	if start+len(obj)+need > math.MaxInt32 {
		return errors.New("spill: a buffer holds less than 2 GiB")
	}
	size := 1 << max(min(minChunkShift+next, maxChunkShift), bits.Len(uint(len(obj)+need-1)))
	if next == len(b.chunks) {
		b.chunks, b.starts = append(b.chunks, nil), append(b.starts, 0)
	}
	c := b.chunks[next]
	if cap(c) < size {
		c = make([]byte, 0, size)
	}
	b.chunks[next], b.starts[next] = c, start
	b.buf = append(c[:0], obj...)
	b.cur, b.obj = next, 0
	return nil
}

// payload returns the chunks that hold bytes, each as long as what it holds.
func (b *Buffer) payload() [][]byte {
	if b.buf == nil {
		return nil
	}
	b.chunks[b.cur] = b.buf
	return b.chunks[:b.cur+1]
}

// LayOut makes a view of every record collected, partition by partition and
// each partition in collect order, for Partition. The views are valid until
// the next reset.
func (b *Buffer) LayOut(parts int) { b.layOut(b.payload(), b.starts, parts) }

// layOut fills the scratch with the views of b.meta's records in chunks, which
// start at starts, and b.ends with where each partition ends in it.
func (b *Buffer) layOut(chunks [][]byte, starts []int, parts int) {
	b.ends = slices.Grow(b.ends[:0], parts)[:parts]
	clear(b.ends)
	for _, m := range b.meta {
		b.ends[m.part]++
	}
	start := 0
	for p, n := range b.ends {
		b.ends[p] = start // the partition's next free slot, for now
		start += n
	}
	s, at := b.scratch(), 0
	s.recs = slices.Grow(s.recs[:0], len(b.meta))[:len(b.meta)]
	for _, m := range b.meta {
		s.recs[b.ends[m.part]] = Rec{K: view(chunks, starts, &at, m.k), V: view(chunks, starts, &at, m.v)}
		b.ends[m.part]++
	}
}

// view returns the bytes s locates in chunks, which start at starts. *at is
// the chunk the last new object was in: a new object is in it or a later
// one; a back-reference is looked up. An object of no bytes (NullWritable's)
// may lie past every chunk.
func view(chunks [][]byte, starts []int, at *int, s span) []byte {
	if s.n == 0 {
		return nil
	}
	off, i := int(s.off), *at
	if off < starts[i] {
		i = sort.SearchInts(starts[:len(chunks)], off+1) - 1
	} else {
		for i+1 < len(chunks) && off >= starts[i+1] {
			i++
		}
		*at = i
	}
	off -= starts[i]
	return chunks[i][off : off+int(s.n) : off+int(s.n)]
}

// Partition returns partition p's views after LayOut, Ship or Decode.
func (b *Buffer) Partition(p int) []Rec {
	lo := 0
	if p > 0 {
		lo = b.ends[p-1]
	}
	return b.sc.recs[lo:b.ends[p]]
}
