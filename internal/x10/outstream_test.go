package x10

import (
	"bytes"
	"math/rand"
	"testing"
)

// writeScript drives an OutStream and a bytes.Buffer with the same writes:
// script is read two bytes at a time, a size selector and a flag byte whose
// low bits end the record after the write or announce it with Grow first.
// Sizes run from one byte to several times the chunk ceiling, so records
// that fit a chunk, fill one exactly, and need one of their own all occur.
// It returns the reference stream and the record boundaries as offsets in it.
func writeScript(s *OutStream, script []byte) (ref []byte, recEnds []int) {
	var sink bytes.Buffer
	fill := byte(1)
	for i := 0; i+1 < len(script); i += 2 {
		var n int
		switch sel := script[i]; {
		case sel < 160:
			n = 1 + int(sel)%64
		case sel < 230:
			n = 1 + (int(sel)*37)%5000
		case sel < 250:
			n = 1<<minChunkShift - 2 + int(sel)%5 // around a chunk's exact size
		default:
			n = (1 << maxChunkShift) * (1 + int(sel)%3) / 2 // half, one and one and a half ceilings
		}
		p := bytes.Repeat([]byte{fill}, n)
		fill++
		if script[i+1]&2 != 0 {
			s.Grow(n)
		}
		s.Write(p)
		sink.Write(p)
		if script[i+1]&1 != 0 {
			s.EndRecord()
			recEnds = append(recEnds, sink.Len())
		}
	}
	s.EndRecord()
	recEnds = append(recEnds, sink.Len())
	return sink.Bytes(), recEnds
}

// checkChunks holds a written stream against its reference: the chunks in
// order are the reference stream, none is empty or over its capacity class,
// and every chunk boundary is a record boundary — no record straddles.
func checkChunks(t *testing.T, s *OutStream, ref []byte, recEnds []int) {
	t.Helper()
	if n := len(s.chunks); n > 0 {
		s.chunks[n-1].buf = s.buf
	}
	isEnd := map[int]bool{0: true}
	for _, e := range recEnds {
		isEnd[e] = true
	}
	var joined []byte
	for i, c := range s.chunks {
		if len(c.buf) == 0 || cap(c.buf) != 1<<c.shift {
			t.Fatalf("chunk %d: %d bytes in capacity %d, class 1<<%d", i, len(c.buf), cap(c.buf), c.shift)
		}
		if !isEnd[len(joined)] {
			t.Fatalf("chunk %d starts at offset %d, inside a record", i, len(joined))
		}
		joined = append(joined, c.buf...)
	}
	if !bytes.Equal(joined, ref) {
		t.Fatalf("chunks hold %d bytes, the reference stream %d, or different ones", len(joined), len(ref))
	}
}

func TestOutStreamChunksAreTheStream(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 2*(1+rng.Intn(120)))
		rng.Read(script)
		s := GetOutStream(false)
		ref, recEnds := writeScript(s, script)
		checkChunks(t, s, ref, recEnds)
		s.Release()
	}
}

// TestOutStreamLadder pins the chunk sizes a stream of small records takes:
// doubling from the first to the ceiling and staying there, so a frame of a
// few kilobytes never costs a ceiling-sized buffer.
func TestOutStreamLadder(t *testing.T) {
	s := GetOutStream(false)
	defer s.Release()
	rec := make([]byte, 100)
	for written := 0; written < 3<<maxChunkShift; written += len(rec) {
		s.Write(rec)
		s.EndRecord()
	}
	for i, c := range s.chunks {
		if want := min(minChunkShift+i, maxChunkShift); c.shift != want {
			t.Fatalf("chunk %d has 1<<%d bytes, want 1<<%d", i, c.shift, want)
		}
	}
}

// TestOutStreamGrowMovesARecordOnce: a record announced with Grow lands in a
// chunk that holds all of it with one move of the bytes it already had,
// where the same record written in pieces outgrows chunk after chunk.
func TestOutStreamGrowMovesARecordOnce(t *testing.T) {
	const total = 5 << maxChunkShift / 2
	s := GetOutStream(false)
	defer s.Release()
	s.Write([]byte("header"))
	s.Grow(total)
	first := &s.buf[0]
	piece := make([]byte, 512)
	for n := 0; n < total; n += len(piece) {
		s.Write(piece)
	}
	if &s.buf[0] != first || len(s.chunks) != 1 || len(s.buf) != total+len("header") {
		t.Fatalf("announced record moved again: %d chunks, %d bytes", len(s.chunks), len(s.buf))
	}
}

func FuzzOutStreamChunks(f *testing.F) {
	f.Add([]byte{10, 1, 200, 0, 255, 1, 3, 1})
	f.Add([]byte{252, 0, 252, 1, 1, 1})
	f.Add([]byte{248, 1, 249, 1, 250, 1, 0, 1})
	f.Add([]byte{5, 0, 253, 3, 5, 1, 254, 2, 9, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 400 {
			script = script[:400]
		}
		s := GetOutStream(false)
		defer s.Release()
		ref, recEnds := writeScript(s, script)
		checkChunks(t, s, ref, recEnds)
	})
}
