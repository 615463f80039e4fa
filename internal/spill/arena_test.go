package spill

import (
	"bytes"
	"math/rand"
	"testing"
)

// ladders are the two arenas the tree builds: a Buffer's and an object
// Buffer's (named for x10.OutStream, whose ladder it was). Every arena test
// runs on both.
var ladders = []struct {
	name               string
	minShift, maxShift int
}{
	{"buffer", minChunkShift, maxChunkShift},
	{"outstream", objectMinChunkShift, objectMaxChunkShift},
}

func forLadders(t *testing.T, test func(t *testing.T, a *Arena)) {
	for _, l := range ladders {
		t.Run(l.name, func(t *testing.T) {
			a := NewArena(l.minShift, l.maxShift)
			test(t, &a)
		})
	}
}

// writeScript drives an arena and a bytes.Buffer with the same writes:
// script is read two bytes at a time, a size selector and a flag byte whose
// low bits end the unit after the write, announce it with Grow first, or
// drop the unit (Rewind) instead of writing it. Sizes run from one byte to
// several times the chunk ceiling, so units that fit a chunk, fill one
// exactly, and need one of their own all occur. It returns the reference
// bytes and the unit boundaries as offsets in them.
func writeScript(a *Arena, script []byte) (ref []byte, unitEnds []int) {
	var sink bytes.Buffer
	fill, unitStart := byte(1), 0
	for i := 0; i+1 < len(script); i += 2 {
		var n int
		switch sel := script[i]; {
		case sel < 160:
			n = 1 + int(sel)%64
		case sel < 230:
			n = 1 + (int(sel)*37)%5000
		case sel < 250:
			n = 1<<a.minShift - 2 + int(sel)%5 // around a chunk's exact size
		default:
			n = (1 << a.maxShift) * (1 + int(sel)%3) / 2 // half, one and one and a half ceilings
		}
		p := bytes.Repeat([]byte{fill}, n)
		fill++
		flags := script[i+1]
		if flags&2 != 0 {
			a.Grow(n)
		}
		a.Write(p)
		sink.Write(p)
		switch {
		case flags&4 != 0:
			a.Rewind(unitStart)
			sink.Truncate(unitStart)
		case flags&1 != 0:
			a.Mark()
			unitEnds = append(unitEnds, sink.Len())
			unitStart = sink.Len()
		}
	}
	a.Mark()
	unitEnds = append(unitEnds, sink.Len())
	return sink.Bytes(), unitEnds
}

// checkChunks holds a written arena against its reference: the chunks in
// order are the reference bytes and start at their offsets; none is empty;
// chunk k has the ladder's size, or a larger power of two whose first unit
// needed more than half of it; and every chunk boundary is a unit boundary —
// no unit straddles.
func checkChunks(t *testing.T, a *Arena, ref []byte, unitEnds []int) {
	t.Helper()
	isEnd := map[int]bool{0: true}
	for _, e := range unitEnds {
		isEnd[e] = true
	}
	var joined []byte
	for k, c := range a.Chunks() {
		rung := 1 << min(a.minShift+k, a.maxShift)
		switch {
		case len(c) == 0:
			t.Fatalf("chunk %d is empty", k)
		case a.starts[k] != len(joined):
			t.Fatalf("chunk %d starts at offset %d, its bytes at %d", k, a.starts[k], len(joined))
		case !isEnd[len(joined)]:
			t.Fatalf("chunk %d starts at offset %d, inside a unit", k, len(joined))
		case cap(c) != rung && (cap(c) < rung || cap(c)&(cap(c)-1) != 0):
			t.Fatalf("chunk %d has capacity %d, the ladder's is %d", k, cap(c), rung)
		}
		if cap(c) > rung {
			first := len(c)
			for e := len(joined) + 1; e < len(joined)+len(c); e++ {
				if isEnd[e] {
					first = e - len(joined)
					break
				}
			}
			if 2*first <= cap(c) {
				t.Fatalf("chunk %d has capacity %d for a first unit of %d bytes", k, cap(c), first)
			}
		}
		joined = append(joined, c...)
	}
	if !bytes.Equal(joined, ref) || a.Len() != len(ref) {
		t.Fatalf("chunks hold %d bytes (Len %d), the reference %d, or different ones", len(joined), a.Len(), len(ref))
	}
}

func TestArenaChunksAreTheBytes(t *testing.T) {
	forLadders(t, func(t *testing.T, a *Arena) {
		for seed := int64(1); seed <= 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			script := make([]byte, 2*(1+rng.Intn(120)))
			rng.Read(script)
			ref, unitEnds := writeScript(a, script)
			checkChunks(t, a, ref, unitEnds)
			a.Reset() // the next seed writes over kept chunks
		}
	})
}

// TestArenaLadder pins the chunk sizes small units take: doubling from the
// first to the ceiling and staying there, so a few kilobytes never cost a
// ceiling-sized chunk.
func TestArenaLadder(t *testing.T) {
	forLadders(t, func(t *testing.T, a *Arena) {
		unit := make([]byte, 100)
		for a.Len() < 3<<a.maxShift {
			a.Write(unit)
			a.Mark()
		}
		for k, c := range a.Chunks() {
			if want := 1 << min(a.minShift+k, a.maxShift); cap(c) != want {
				t.Fatalf("chunk %d has %d bytes, want %d", k, cap(c), want)
			}
		}
	})
}

// TestArenaGrowMovesAUnitOnce: a unit announced with Grow lands in a chunk
// that holds all of it with one move of the bytes it already had, where the
// same unit written in pieces outgrows chunk after chunk; having had its
// chunk to itself, it replaces that chunk.
func TestArenaGrowMovesAUnitOnce(t *testing.T) {
	forLadders(t, func(t *testing.T, a *Arena) {
		total := 5 << a.maxShift / 2
		a.Write([]byte("header"))
		a.Grow(total)
		first := &a.buf[0]
		piece := make([]byte, 512)
		for n := 0; n < total; n += len(piece) {
			a.Write(piece)
		}
		if &a.buf[0] != first || len(a.Chunks()) != 1 || a.Len() != total+len("header") {
			t.Fatalf("announced unit moved again: %d chunks, %d bytes", len(a.Chunks()), a.Len())
		}
	})
}

// TestArenaMovesAUnitWhole: a unit that does not fit what is left of its
// chunk moves, the bytes it had written so far with it, to the start of the
// next chunk; the units before it stay where they were.
func TestArenaMovesAUnitWhole(t *testing.T) {
	forLadders(t, func(t *testing.T, a *Arena) {
		first := 1 << a.minShift
		a.Write(make([]byte, first-600))
		a.Mark()
		a.Write(bytes.Repeat([]byte{'k'}, 400)) // fits behind the first unit
		a.Mark()
		for range 10 { // does not, written in pieces
			a.Write(bytes.Repeat([]byte{2}, 100))
		}
		if off, n := a.Unit(); off != first-200 || n != 1000 || a.cur != 1 || a.starts[1] != off {
			t.Errorf("the third unit is %d bytes at offset %d in chunk %d, want 1000 at %d, the start of chunk 1", n, off, a.cur, first-200)
		}
		if c := a.Chunks(); len(c[0]) != first-200 || c[0][len(c[0])-1] != 'k' {
			t.Errorf("chunk 0 holds %d bytes, want the first two units' %d", len(c[0]), first-200)
		}
		if got, want := cap(a.Chunks()[1]), 2*first; got != want {
			t.Errorf("chunk 1 holds %d bytes, want the ladder's %d", got, want)
		}
	})
}

// TestArenaUnitAboveCeiling: a unit larger than the ceiling gets a chunk of
// its own size, the units after it continue behind it, and the reset drops
// that chunk and keeps the ladder's, which the next round writes over.
func TestArenaUnitAboveCeiling(t *testing.T) {
	forLadders(t, func(t *testing.T, a *Arena) {
		huge := 3 << a.maxShift
		a.Write([]byte("small"))
		a.Mark()
		a.Write(make([]byte, huge))
		a.Mark()
		a.Write([]byte("after"))
		a.Mark()
		chunks := a.Chunks()
		if len(chunks) != 2 || len(chunks[1]) != huge+len("after") || cap(chunks[1]) <= 1<<a.maxShift {
			t.Fatalf("%d chunks; the huge unit's holds %d bytes of %d", len(chunks), len(chunks[len(chunks)-1]), cap(chunks[len(chunks)-1]))
		}
		a.Reset()
		if a.chunks[1] != nil || cap(a.chunks[0]) != 1<<a.minShift {
			t.Errorf("reset kept a %d-byte chunk 1 and a %d-byte chunk 0", cap(a.chunks[1]), cap(a.chunks[0]))
		}
		kept := &a.chunks[0][:1][0]
		ref, unitEnds := writeScript(a, []byte{1, 1, 255, 1, 2, 1})
		checkChunks(t, a, ref, unitEnds)
		if &a.chunks[0][0] != kept {
			t.Error("the next round did not write over the kept chunk 0")
		}
	})
}

// TestArenaResetPoisonsWhatItKeeps: under PoisonRecycledBlocks a reset
// overwrites every chunk it keeps, so a view of the arena kept past it reads
// garbage. A chunk handed over is its holder's: never poisoned, never
// reused, and a copy of a chunk's bytes hands nothing over.
func TestArenaResetPoisonsWhatItKeeps(t *testing.T) {
	defer PoisonRecycledBlocks.Store(PoisonRecycledBlocks.Swap(true))
	forLadders(t, func(t *testing.T, a *Arena) {
		unit := bytes.Repeat([]byte{7}, 1000)
		for a.Len() < 3<<a.minShift {
			a.Write(unit)
			a.Mark()
		}
		chunks := a.Chunks()
		if len(chunks) < 3 {
			t.Fatalf("%d chunks, want 3 or more", len(chunks))
		}
		kept, held := chunks[0], chunks[1]
		a.HandOver(0, bytes.Clone(kept))
		a.HandOver(1, held)
		a.Reset()
		if !bytes.Equal(kept, bytes.Repeat([]byte{0xDB}, len(kept))) {
			t.Error("a kept chunk was not poisoned at reset")
		}
		if !bytes.Equal(held, bytes.Repeat([]byte{7}, len(held))) {
			t.Error("a handed-over chunk was poisoned at reset")
		}
		if a.chunks[1] != nil || cap(a.chunks[0]) == 0 {
			t.Errorf("after reset: chunk 0 of %d bytes, chunk 1 of %d; want it kept and the handed-over one gone", cap(a.chunks[0]), cap(a.chunks[1]))
		}
		ref, unitEnds := writeScript(a, bytes.Repeat([]byte{200, 1}, 40))
		checkChunks(t, a, ref, unitEnds)
		if c := a.Chunks(); len(c) < 2 || &c[1][0] == &held[0] {
			t.Fatal("the next round reused the handed-over chunk")
		}
		if !bytes.Equal(held, bytes.Repeat([]byte{7}, len(held))) {
			t.Error("the next round wrote over the handed-over chunk")
		}
	})
}

func FuzzArenaChunks(f *testing.F) {
	f.Add([]byte{10, 1, 200, 0, 255, 1, 3, 1})
	f.Add([]byte{252, 0, 252, 1, 1, 1})
	f.Add([]byte{248, 1, 249, 1, 250, 1, 0, 1})
	f.Add([]byte{5, 0, 253, 3, 5, 1, 254, 2, 9, 1})
	f.Add([]byte{200, 1, 250, 0, 251, 4, 5, 1, 252, 6, 3, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 400 {
			script = script[:400]
		}
		for _, l := range ladders {
			a := NewArena(l.minShift, l.maxShift)
			ref, unitEnds := writeScript(&a, script)
			checkChunks(t, &a, ref, unitEnds)
			a.Reset() // and again over the kept chunks
			ref, unitEnds = writeScript(&a, script)
			checkChunks(t, &a, ref, unitEnds)
		}
	})
}
