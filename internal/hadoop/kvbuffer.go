package hadoop

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"m3r/internal/spill"
	"m3r/internal/wio"
)

// kvBuffer is a map task's serialized output between two spills, Hadoop's
// MapOutputBuffer: the records' bytes in a chunked arena, and beside it a
// pointer-free index of one kvMeta per record. Collecting a record writes
// its key and value through the buffer's own stream-mode wio.Writer and
// appends one index entry, so no heap object is made per record.
//
// The arena grows by taking another chunk, never by copying one. Chunk k
// holds 1<<(minKVChunkShift+k) bytes up to the ceiling, and a record never
// straddles two chunks: when one does not fit, the bytes it has so far move
// to the next chunk, as x10.OutStream does, and a record larger than the
// ceiling gets a chunk of its own size. A record's bytes, and every view of
// them, are valid until the next reset, which keeps the chunks, the index
// and the view scratch for the next spill; release pools the whole buffer
// for the next task.
type kvBuffer struct {
	w      wio.Writer // stream mode, writing into the buffer itself
	chunks [][]byte   // the arena; chunks[cur] is being written
	cur    int
	buf    []byte // chunks[cur] as written so far, here so that Write appends to a field
	rec    int    // where in buf the record being written starts
	meta   []kvMeta

	recs []spill.Rec // layOut's views, partition by partition
	ends []int       // layOut's end of each partition in recs
}

// kvMeta locates one record in the arena: its partition, chunk and offset,
// and its key's and value's lengths. It holds no pointer, so the index costs
// the garbage collector nothing to scan.
type kvMeta struct {
	part, chunk, off, klen, vlen int32
}

// Chunk sizes are powers of two: 4 KiB first, so a task with little output
// (a PageRank job's) touches little memory, then doubling to a 64 KiB
// ceiling, so a large output moves in a few dozen chunks and a record that
// does not fit strands at most the tail of one.
const (
	minKVChunkShift = 12
	maxKVChunkShift = 16
)

var kvBuffers = sync.Pool{New: func() any { return newKVBuffer() }}

// newKVBuffer returns an empty buffer with no chunk yet.
func newKVBuffer() *kvBuffer {
	b := new(kvBuffer)
	b.w.Reset(b)
	return b
}

// PoisonRecycledChunks is a test hook: while set, every chunk is overwritten
// with 0xDB when its buffer resets, so a record view kept past its spill
// reads garbage instead of, most of the time, its own bytes.
var PoisonRecycledChunks atomic.Bool

// getKVBuffer checks an empty buffer out of the pool. The caller releases it.
func getKVBuffer() *kvBuffer { return kvBuffers.Get().(*kvBuffer) }

// release empties the buffer and pools it.
func (b *kvBuffer) release() {
	b.reset()
	kvBuffers.Put(b)
}

// reset forgets every record: the next collect writes from the first chunk
// again. Chunks above the ceiling are dropped, the rest kept.
func (b *kvBuffer) reset() {
	poison := PoisonRecycledChunks.Load()
	for i, c := range b.chunks {
		if poison {
			c = c[:cap(c)]
			for j := range c {
				c[j] = 0xDB
			}
		}
		if cap(c) > 1<<maxKVChunkShift {
			b.chunks[i] = nil
		}
	}
	clear(b.recs)
	b.meta, b.recs = b.meta[:0], b.recs[:0]
	b.cur, b.buf, b.rec = 0, nil, 0
	if len(b.chunks) > 0 && b.chunks[0] != nil {
		b.buf = b.chunks[0][:0]
	}
}

// collect serializes one record of partition p into the arena and returns
// a view of its bytes, valid until the next reset.
func (b *kvBuffer) collect(p int, key, value wio.Writable) (spill.Rec, error) {
	b.rec = len(b.buf)
	if err := key.WriteTo(&b.w); err != nil {
		b.buf = b.buf[:b.rec]
		return spill.Rec{}, err
	}
	klen := len(b.buf) - b.rec // measured from rec, which a move resets
	if err := value.WriteTo(&b.w); err != nil {
		b.buf = b.buf[:b.rec]
		return spill.Rec{}, err
	}
	r := b.buf[b.rec:]
	b.meta = append(b.meta, kvMeta{part: int32(p), chunk: int32(b.cur), off: int32(b.rec), klen: int32(klen), vlen: int32(len(r) - klen)})
	return spill.Rec{K: r[:klen:klen], V: r[klen:len(r):len(r)]}, nil
}

// Write implements io.Writer for the buffer's wio.Writer.
func (b *kvBuffer) Write(p []byte) (int, error) {
	if len(p) > cap(b.buf)-len(b.buf) {
		b.overflow(len(p))
	}
	b.buf = append(b.buf, p...) // within capacity: never reallocates
	return len(p), nil
}

// Grow makes room for n more bytes of the current record, so a writer about
// to emit a large body in pieces (wio.Writer's WriteFloat64s) moves the
// record once.
func (b *kvBuffer) Grow(n int) {
	if n > cap(b.buf)-len(b.buf) {
		b.overflow(n)
	}
}

// overflow makes room for need more bytes of the current record by moving
// the record to the next chunk: the ladder's size there, or the power of two
// that holds the record if that is larger. A chunk kept from an earlier
// spill is reused when it is large enough.
func (b *kvBuffer) overflow(need int) {
	rec := b.buf[b.rec:]
	next := b.cur + 1
	if b.buf == nil {
		next = 0 // nothing written since the reset, and no first chunk kept
	}
	size := 1 << max(min(minKVChunkShift+next, maxKVChunkShift), bits.Len(uint(len(rec)+need-1)))
	if next == len(b.chunks) {
		b.chunks = append(b.chunks, nil)
	}
	c := b.chunks[next]
	if cap(c) < size {
		c = make([]byte, 0, size)
		b.chunks[next] = c
	}
	b.buf = append(c[:0], rec...)
	b.cur, b.rec = next, 0
}

// layOut fills b.recs with a view of every record, partition by partition
// and each partition in collect order, and b.ends with where each of the
// parts partitions ends in it. The views are valid until the next reset.
func (b *kvBuffer) layOut(parts int) {
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
	b.recs = slices.Grow(b.recs[:0], len(b.meta))[:len(b.meta)]
	for _, m := range b.meta {
		var r spill.Rec
		// A record of no bytes (NullWritable's) may name a chunk that was
		// never made: nothing was written since the reset.
		if m.klen+m.vlen > 0 {
			c := b.chunks[m.chunk]
			k, v := m.off+m.klen, m.off+m.klen+m.vlen
			r = spill.Rec{K: c[m.off:k:k], V: c[k:v:v]}
		}
		b.recs[b.ends[m.part]] = r
		b.ends[m.part]++
	}
}

// partition returns partition p's views after layOut.
func (b *kvBuffer) partition(p int) []spill.Rec {
	lo := 0
	if p > 0 {
		lo = b.ends[p-1]
	}
	return b.recs[lo:b.ends[p]]
}
