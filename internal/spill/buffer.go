package spill

import (
	"errors"
	"math"
	"slices"
	"sort"
	"sync"

	"m3r/internal/wio"
)

// Buffer is a map task's serialized output toward one destination, Hadoop's
// MapOutputBuffer: a Hadoop map task's between two spills, or an M3R map
// task's toward one place, shipped chunk by chunk (frame.go) to a remote
// one. A record's key and value go through the buffer's own stream-mode
// wio.Writer into an Arena, each its own unit, and one pointer-free kvMeta
// into the index: no heap object per record. An object is addressed by its
// offset in the arena, under 2 GiB. Views are valid until the next Reset.
type Buffer struct {
	w    wio.Writer // stream mode, writing into a
	a    Arena
	meta []kvMeta
	ends []int                 // layOut's end of each partition in sc.recs
	sc   *scratch              // from LayOut, Ship or Decode to the next reset
	seen map[wio.Writable]span // objects worth a back-reference, by identity
	hits int64                 // back-references made
	// floor: with dedup, an object of more than floor bytes is remembered.
	floor int32
	pool  *sync.Pool
	// kept is KeptDecoder's, made at its first call: only a sink's buffer
	// decodes its own records, and a decoder is as large as a buffer.
	kept *PairDecoder
}

// scratch is what a buffer needs only from LayOut, Ship or Decode to its next
// reset: the views records are laid out in, partition by partition, and
// what crossed. Few buffers are laid out at once, so it is pooled apart from
// them.
type scratch struct {
	recs    []Rec
	wire    []byte   // the table and footer Ship sends
	arrived [][]byte // Ship's pieces as they arrived
	payload [][]byte // Decode's payload pieces, and where each starts
	starts  []int
	refs    []span         // the objects back-references name (Decode)
	objs    []wio.Writable // Unpack's object for each of refs
	dec     PairDecoder    // Unpack's, its slab holders kept
}

// span locates one object's bytes: its offset in the arena's bytes (after
// Decode, in the payload's) and its length.
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

// An object buffer's chunks climb from 16 KiB to 128 KiB. A chunk crosses as
// one transport frame, over a socket a round trip, so a payload of a few
// kilobytes must stay one (from 4 KiB a 69 KB send took five). A chunk a
// decoded value points into is handed over whole: the ceiling trades the
// fixed cost per chunk against the unused tail such a chunk strands for as
// long as any of its values lives.
const (
	objectMinChunkShift = 14
	objectMaxChunkShift = 17
)

// identityEntryBytes is what remembering an object costs, an interface key
// and a span, rounded up: a back-reference saves no more than the bytes it
// replaces, so a 9-byte Text is never remembered; an 80 KB matrix block is.
// An object buffer remembers every object instead: its records arrive as
// objects, and a back-reference saves the object, not just its bytes.
const identityEntryBytes = 32

// maxKeptObjs bounds the identity table a buffer keeps across resets:
// clearing a map costs time in its capacity, not its length, so one huge
// task must not tax every small one after it.
const maxKeptObjs = 1 << 16

var scratches = sync.Pool{New: func() any { return new(scratch) }}

var buffers, objectBuffers sync.Pool

func init() {
	pool := func(p *sync.Pool, minShift, maxShift int, floor int32) {
		p.New = func() any {
			b := &Buffer{a: NewArena(minShift, maxShift), floor: floor, pool: p}
			b.w.Reset(&b.a)
			return b
		}
	}
	pool(&buffers, minChunkShift, maxChunkShift, identityEntryBytes)
	pool(&objectBuffers, objectMinChunkShift, objectMaxChunkShift, -1)
}

// GetBuffer checks an empty buffer out of the pool: the Hadoop engine's
// sort buffer, and a budgeted M3R task's toward one place, whose records
// stay bytes until the merge. The caller releases it.
func GetBuffer() *Buffer { return buffers.Get().(*Buffer) }

// GetObjectBuffer checks an empty buffer out of the pool of those whose
// records cross to another place to become objects there (Unpack): an
// unbudgeted M3R task's toward a remote place, and ShipPairs'. The caller
// releases it.
func GetObjectBuffer() *Buffer { return objectBuffers.Get().(*Buffer) }

// Release empties the buffer and pools it.
func (b *Buffer) Release() {
	b.Reset()
	b.pool.Put(b)
}

// Reset forgets every record: the arena resets, and the scratch goes back to
// its pool, its table poisoned first under PoisonRecycledBlocks.
func (b *Buffer) Reset() {
	b.a.Reset()
	if s := b.sc; s != nil {
		if PoisonRecycledBlocks.Load() {
			poisonBytes(s.wire[:cap(s.wire)])
		}
		clear(s.recs)
		clear(s.arrived)
		clear(s.objs)
		clear(s.payload)
		s.dec.release()
		s.recs, s.wire, s.arrived, s.objs = s.recs[:0], s.wire[:0], s.arrived[:0], s.objs[:0]
		s.payload, s.refs = s.payload[:0], s.refs[:0]
		scratches.Put(s)
	}
	if b.kept != nil {
		b.kept.release()
	}
	b.meta, b.sc = b.meta[:0], nil
	if len(b.seen) > maxKeptObjs {
		b.seen = nil
	} else {
		clear(b.seen)
	}
	b.hits = 0
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
	end, hits := b.a.Len(), b.hits
	k, err := b.object(key, dedup)
	if err == nil {
		var v span
		if v, err = b.object(value, dedup); err == nil {
			if len(b.meta) == cap(b.meta) { // doubling: append's quarters allocate 5× the end
				b.meta = slices.Grow(b.meta, max(len(b.meta), 256))
			}
			b.meta = append(b.meta, kvMeta{part: int32(p), k: k, v: v})
			chunks, at := b.a.Chunks(), b.a.cur // the value's chunk; the key's or after it
			return Rec{K: view(chunks, b.a.starts, &at, k), V: view(chunks, b.a.starts, &at, v)}, nil
		}
	}
	b.a.Rewind(end)
	b.hits = hits
	clear(b.seen) // an identity may name the bytes just dropped
	return Rec{}, err
}

// object writes v as the arena's next object, or with dedup finds it there
// already, and returns where its bytes are.
func (b *Buffer) object(v wio.Writable, dedup bool) (span, error) {
	// No lookup while nothing is remembered: one in an empty map still
	// checks that the interface key's dynamic type is hashable
	// (runtime.mapKeyError), and a buffer of small objects never remembers
	// one.
	if dedup && len(b.seen) > 0 {
		if s, ok := b.seen[v]; ok {
			b.hits++
			return s, nil
		}
	}
	b.a.Mark()
	if err := v.WriteTo(&b.w); err != nil {
		return span{}, err
	}
	off, n := b.a.Unit()
	if off+n > math.MaxInt32 {
		return span{}, errors.New("spill: a buffer holds less than 2 GiB")
	}
	s := span{off: int32(off), n: int32(n)}
	if dedup && s.n > b.floor {
		if b.seen == nil {
			b.seen = make(map[wio.Writable]span)
		}
		b.seen[v] = s
	}
	return s, nil
}

// LayOut makes a view of every record collected, partition by partition and
// each partition in collect order, for Partition. The views are valid until
// the next reset.
func (b *Buffer) LayOut(parts int) { b.layOut(b.a.Chunks(), b.a.starts, parts) }

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

// KeptDecoder readies the buffer's own decoder for the records collected,
// of the classes named, as objects that all join one cache entry
// (PairDecoder.OneEntry): the keys from one slab of their class's, the
// values from another — each of the exact count, up to 256 — and every
// float body from one slab of the run's, which the arena's length bounds
// (a buffer collected without dedup holds each key and value once). Its
// Decode copies every body out of the record, so no object points into a
// chunk the arena reuses. The decoder, with its allocators' slab holders,
// stays with the buffer through resets and the pool; each reset lets go of
// its slabs.
func (b *Buffer) KeptDecoder(keyClass, valClass string) (*PairDecoder, error) {
	if b.kept == nil {
		b.kept = new(PairDecoder)
	}
	if err := b.kept.reuse(keyClass, valClass, len(b.meta), true); err != nil {
		return nil, err
	}
	b.kept.OneEntry(b.a.Len())
	return b.kept, nil
}

// Partition returns partition p's views after LayOut, Ship or Decode.
func (b *Buffer) Partition(p int) []Rec {
	lo := 0
	if p > 0 {
		lo = b.ends[p-1]
	}
	return b.sc.recs[lo:b.ends[p]]
}
