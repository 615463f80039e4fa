package x10

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"m3r/internal/wio"
)

// OutStream is everything one sender serializes for one destination place:
// a wio.Encoder writing into a list of chunks, the frames the transport
// carries, and the wio.Decoder that turns them back into objects where they
// arrive. ShipPairs and the M3R shuffle's per-destination streams are its two
// users.
//
// The stream grows by taking another chunk, never by copying one, and a
// record — what the sender writes between two EndRecord calls — never
// straddles two chunks: when one does not fit, the bytes it has so far move
// to the next chunk, and a record larger than a chunk gets one of its own
// size. So every chunk decodes on its own, and changes owner on its own: a
// chunk a decoded value points into (wio.Reader.ResetBytesOwned) belongs to
// that value from then on and is never reused; a chunk nobody points into
// goes back to its pool at Release. One Encoder and one Decoder span all
// chunks, so type ids and §3.2.2.3's back-references work across them and
// chunk boundaries add no byte to the wire.
type OutStream struct {
	enc *wio.Encoder
	dec wio.Decoder

	chunks []*chunk // the stream in order; the last one is being written
	buf    []byte   // the last chunk's bytes, here so that Write appends to a field
	rec    int      // where in buf the record being written starts

	arrived [][]byte // per chunk, the bytes as delivered at the destination
	next    int      // the arrived chunk the decoder takes next
}

// A chunk is one pooled buffer. The object is pointer-stable so that putting
// it into a sync.Pool boxes nothing: a stream nobody pointed into costs no
// allocation in steady state. A chunk whose buffer was handed over goes back
// to its pool without one (buf == nil), and getChunk gives it a new buffer:
// a handed-over chunk then costs one allocation, not two.
type chunk struct {
	buf   []byte
	shift int // cap(buf) == 1<<shift
}

// Chunk sizes are powers of two. A stream's k-th chunk has 1<<(minChunkShift+k)
// bytes up to the ceiling, so a frame of a few kilobytes never touches a
// ceiling-sized buffer. The first rung is as large as it is because a chunk
// is a frame and, over a socket, a round trip: a 7 KB frame must stay one.
// The ceiling trades the fixed cost per chunk against what a handed-over chunk
// strands: the unused tail of each stream's last chunk and of every chunk
// whose next record did not fit, live for as long as any value of the chunk
// is. A record larger than the ceiling gets a chunk of its own size, allocated
// for it and dropped: no workload sends one, so there is no pool for them.
const (
	minChunkShift = 14
	maxChunkShift = 17
)

// ChunkCeiling is the size of the largest chunk a record does not need to
// itself.
const ChunkCeiling = 1 << maxChunkShift

var (
	chunkPools [maxChunkShift - minChunkShift + 1]sync.Pool
	streamPool = sync.Pool{New: func() any {
		s := new(OutStream)
		s.enc = wio.NewEncoder(s, false)
		return s
	}}
)

// PoisonReleasedChunks is a test hook: while set, every chunk going back to
// its pool is overwritten with 0xDB first, so a value that still points into
// a chunk the ownership rule let go of reads garbage instead of, most of the
// time, its own bytes.
var PoisonReleasedChunks atomic.Bool

func getChunk(shift int) *chunk {
	if shift <= maxChunkShift {
		if c, _ := chunkPools[shift-minChunkShift].Get().(*chunk); c != nil {
			if c.buf == nil {
				c.buf = make([]byte, 0, 1<<shift)
			}
			return c
		}
	}
	return &chunk{buf: make([]byte, 0, 1<<shift), shift: shift}
}

// putChunk pools c, with its buffer unless that was handed over.
func putChunk(c *chunk) {
	if PoisonReleasedChunks.Load() {
		b := c.buf[:cap(c.buf)]
		for i := range b {
			b[i] = 0xDB
		}
	}
	c.buf = c.buf[:0]
	if c.shift <= maxChunkShift {
		chunkPools[c.shift-minChunkShift].Put(c)
	}
}

// GetOutStream checks an empty stream out of the pool. With dedup, an object
// encoded twice crosses as a back-reference the second time. The caller
// Releases it on every path.
func GetOutStream(dedup bool) *OutStream {
	s := streamPool.Get().(*OutStream)
	s.enc.Reset(s, dedup)
	return s
}

// Release returns the stream and its chunks to their pools, each with its
// buffer unless a decoded value points into it. The stream remembers no
// object it encoded or decoded.
func (s *OutStream) Release() {
	s.settle() // a decode that failed inside a chunk may have pointed into it
	for _, c := range s.chunks {
		putChunk(c)
	}
	clear(s.chunks)
	clear(s.arrived)
	s.chunks, s.arrived = s.chunks[:0], s.arrived[:0]
	s.buf, s.rec, s.next = nil, 0, 0
	s.enc.Reset(s, false)
	s.dec.ResetBytes(nil, false)
	streamPool.Put(s)
}

// Encoder returns the stream's encoder. Call EndRecord after each record.
func (s *OutStream) Encoder() *wio.Encoder { return s.enc }

// EndRecord marks a record boundary: what has been written so far stays in
// its chunk, what follows may start the next one.
func (s *OutStream) EndRecord() { s.rec = len(s.buf) }

// Write implements io.Writer for the stream's encoder.
func (s *OutStream) Write(p []byte) (int, error) {
	if len(p) > cap(s.buf)-len(s.buf) {
		s.overflow(len(p))
	}
	s.buf = append(s.buf, p...) // within capacity: never reallocates
	return len(p), nil
}

// Grow makes room for n more bytes of the current record, as bytes.Buffer's
// Grow does: a writer about to emit a large body in pieces (wio.Writer's
// WriteFloat64s) calls it first, so the record moves to a chunk that holds
// all of it once instead of outgrowing one chunk after another.
func (s *OutStream) Grow(n int) {
	if n > cap(s.buf)-len(s.buf) {
		s.overflow(n)
	}
}

// overflow makes room for need more bytes of the current record by moving
// the record to a new last chunk: the next size of the ladder, or the power
// of two that holds the record if that is larger — so a record that outgrows
// chunk after chunk is copied at most twice its length in all.
func (s *OutStream) overflow(need int) {
	rec := s.buf[s.rec:]
	n := len(s.chunks)
	shift := max(min(minChunkShift+n, maxChunkShift), bits.Len(uint(len(rec)+need-1)))
	c := getChunk(shift)
	c.buf = append(c.buf, rec...)
	switch {
	case n == 0:
		s.chunks = append(s.chunks, c)
	case s.rec == 0:
		// The record had the last chunk to itself and outgrew it.
		putChunk(s.chunks[n-1])
		s.chunks[n-1] = c
	default:
		s.chunks[n-1].buf = s.buf[:s.rec]
		s.chunks = append(s.chunks, c)
	}
	s.buf, s.rec = c.buf, 0
}

// ShipStream closes s and carries its chunks, one frame each, from place
// `from` to place `to` through the runtime's transport. It returns the bytes
// and frames delivered; the stream then decodes what arrived (NextRecord,
// End).
func (rt *Runtime) ShipStream(from, to int, s *OutStream) (n int64, frames int, err error) {
	if err := s.enc.Close(); err != nil {
		return 0, 0, err
	}
	s.EndRecord()
	s.chunks[len(s.chunks)-1].buf = s.buf
	for _, c := range s.chunks {
		payload, err := rt.transport.Ship(from, to, c.buf)
		if err != nil {
			return 0, 0, err
		}
		s.arrived = append(s.arrived, payload)
		n += int64(len(payload))
	}
	return n, len(s.arrived), nil
}

// NextRecord returns the stream's decoder positioned at the next record of
// what arrived, moving on to the next chunk when the current one is used up.
// Byte bodies the decoder returns may point into the arrived bytes.
func (s *OutStream) NextRecord() (*wio.Decoder, error) {
	for s.dec.Remaining() == 0 {
		s.settle()
		if s.next == len(s.arrived) {
			return nil, fmt.Errorf("stream ends after %d chunks: %w", s.next, io.ErrUnexpectedEOF)
		}
		// What arrived is the destination's to keep, unless keeping it
		// would strand more than it holds: a chunk under half full — a
		// stream's last, or one cut short by a record too large for it — is
		// decoded by copying and goes back to its pool.
		b := s.arrived[s.next]
		if owned := 2*len(b) >= cap(b); s.next == 0 {
			s.dec.ResetBytes(b, owned)
		} else {
			s.dec.ContinueBytes(b, owned)
		}
		s.next++
	}
	return &s.dec, nil
}

// settle applies the ownership rule to the chunk the decoder has finished:
// if a decoded value points into the arrived bytes and those are the sent
// chunk itself (the inproc transport; a socket delivers a buffer of its own),
// the chunk is the destination's and the stream forgets it.
func (s *OutStream) settle() {
	if s.next == 0 || !s.dec.Aliased() {
		return
	}
	c, got := s.chunks[s.next-1], s.arrived[s.next-1]
	if len(c.buf) > 0 && len(got) > 0 && &c.buf[0] == &got[0] {
		c.buf = nil
	}
}

// End checks that the stream ends where the receiver's count says it does:
// the end-of-stream marker comes next, and nothing follows it.
func (s *OutStream) End() error {
	dec, err := s.NextRecord()
	if err != nil {
		return fmt.Errorf("no end-of-stream marker: %w", err)
	}
	if err := dec.DecodeEnd(); err != nil {
		return err
	}
	if rest := dec.Remaining(); rest != 0 || s.next != len(s.arrived) {
		return fmt.Errorf("%d bytes and %d chunks follow the end-of-stream marker", rest, len(s.arrived)-s.next)
	}
	s.settle()
	return nil
}
