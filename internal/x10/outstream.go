package x10

import (
	"fmt"
	"io"
	"sync"

	"m3r/internal/spill"
	"m3r/internal/wio"
)

// OutStream is everything one sender serializes for one destination place:
// a wio.Encoder writing into a chunked spill.Arena, the frames the transport
// carries, and the wio.Decoder that turns them back into objects where they
// arrive. ShipPairs and the M3R shuffle's per-destination streams are its two
// users.
//
// A record — what the sender writes between two EndRecord calls — is one
// unit of the arena, so it never straddles two chunks, and every chunk
// decodes on its own and changes owner on its own: a chunk a decoded value
// points into (wio.Reader.ResetBytesOwned) belongs to that value from then
// on, and the arena forgets it (HandOver); a chunk nobody points into stays
// with the stream, pooled with it. One Encoder and one Decoder span all
// chunks, so type ids and §3.2.2.3's back-references work across them and
// chunk boundaries add no byte to the wire.
type OutStream struct {
	enc *wio.Encoder
	dec wio.Decoder
	a   spill.Arena

	arrived [][]byte // per chunk, the bytes as delivered at the destination
	next    int      // the arrived chunk the decoder takes next
}

// Chunk sizes are powers of two. A stream's k-th chunk has 1<<(minChunkShift+k)
// bytes up to the ceiling, so a frame of a few kilobytes never touches a
// ceiling-sized buffer. The first rung is as large as it is because a chunk
// is a frame and, over a socket, a round trip: a 7 KB frame must stay one.
// The ceiling trades the fixed cost per chunk against what a handed-over chunk
// strands: the unused tail of each stream's last chunk and of every chunk
// whose next record did not fit, live for as long as any value of the chunk
// is. A record larger than the ceiling gets a chunk of its own size, dropped
// when the stream is released: no workload sends one.
const (
	minChunkShift = 14
	maxChunkShift = 17
)

// ChunkCeiling is the size of the largest chunk a record does not need to
// itself.
const ChunkCeiling = 1 << maxChunkShift

var streamPool = sync.Pool{New: func() any {
	s := &OutStream{a: spill.NewArena(minChunkShift, maxChunkShift)}
	s.enc = wio.NewEncoder(&s.a, false)
	return s
}}

// GetOutStream checks an empty stream out of the pool. With dedup, an object
// encoded twice crosses as a back-reference the second time. The caller
// Releases it on every path.
func GetOutStream(dedup bool) *OutStream {
	s := streamPool.Get().(*OutStream)
	s.enc.Reset(&s.a, dedup)
	return s
}

// Release returns the stream to its pool with its chunks, but for those a
// decoded value points into. The stream remembers no object it encoded or
// decoded.
func (s *OutStream) Release() {
	s.settle() // a decode that failed inside a chunk may have pointed into it
	s.a.Reset()
	clear(s.arrived)
	s.arrived, s.next = s.arrived[:0], 0
	s.enc.Reset(&s.a, false)
	s.dec.ResetBytes(nil, false)
	streamPool.Put(s)
}

// Encoder returns the stream's encoder. Call EndRecord after each record.
func (s *OutStream) Encoder() *wio.Encoder { return s.enc }

// EndRecord marks a record boundary: what has been written so far stays in
// its chunk, what follows may start the next one.
func (s *OutStream) EndRecord() { s.a.Mark() }

// ShipStream closes s and carries its chunks, one frame each, from place
// `from` to place `to` through the runtime's transport. It returns the bytes
// and frames delivered; the stream then decodes what arrived (NextRecord,
// End).
func (rt *Runtime) ShipStream(from, to int, s *OutStream) (n int64, frames int, err error) {
	if err := s.enc.Close(); err != nil {
		return 0, 0, err
	}
	s.EndRecord()
	for _, c := range s.a.Chunks() {
		payload, err := rt.transport.Ship(from, to, c)
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
		// decoded by copying and stays with the stream.
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
	s.a.HandOver(s.next-1, s.arrived[s.next-1])
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
