package wio_test

import (
	"bytes"
	"testing"

	"m3r/internal/types"
	"m3r/internal/wio"
)

// encodeBodies writes each body as WriteBytes does and returns the frame.
func encodeBodies(bodies ...[]byte) []byte {
	var w wio.Writer
	for _, b := range bodies {
		w.WriteBytes(b)
	}
	return w.Bytes()
}

func body(fill byte, n int) []byte { return bytes.Repeat([]byte{fill}, n) }

// TestOwnedModeViewsFromTheFloorUp pins which bodies an owned reader hands
// out as views of its input: those of OwnedFloor bytes or more read for a
// holder without capacity, and no others; at floor 0, every non-empty body
// — and that the copying mode never does.
func TestOwnedModeViewsFromTheFloorUp(t *testing.T) {
	small, atFloor := body('s', wio.OwnedFloor-1), body('f', wio.OwnedFloor)
	frame := encodeBodies(small, atFloor, atFloor)
	inFrame := func(b []byte) bool {
		for i := range frame {
			if &frame[i] == &b[0] {
				return true
			}
		}
		return false
	}

	var r wio.Reader
	r.ResetBytesOwned(frame, wio.OwnedFloor)
	got, err := r.ReadBytes()
	if err != nil || !bytes.Equal(got, small) || inFrame(got) || r.Aliased() {
		t.Fatalf("body under the floor: %v, in frame %v, Aliased %v", err, inFrame(got), r.Aliased())
	}
	got, err = r.ReadBytes()
	if err != nil || !bytes.Equal(got, atFloor) || !inFrame(got) || !r.Aliased() {
		t.Fatalf("body at the floor: %v, in frame %v, Aliased %v", err, inFrame(got), r.Aliased())
	}
	if cap(got) != len(got) {
		t.Fatalf("view has capacity %d beyond its %d bytes", cap(got), len(got))
	}
	// A holder with room of its own is filled, as in the copying mode.
	holder := make([]byte, 0, wio.OwnedFloor)
	got, err = r.ReadBytesBuf(holder)
	if err != nil || !bytes.Equal(got, atFloor) || &got[0] != &holder[:1][0] {
		t.Fatalf("body read into a holder with capacity: %v, reused %v", err, err == nil && &got[0] == &holder[:1][0])
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left", r.Remaining())
	}

	r.ResetBytes(frame)
	for range 3 {
		if got, err = r.ReadBytes(); err != nil || inFrame(got) {
			t.Fatalf("copying mode: %v, in frame %v", err, inFrame(got))
		}
	}
	if r.Aliased() {
		t.Fatal("copying mode reports Aliased")
	}

	// Floor 0, an input that is one block's alone: every body but the
	// empty one is a view, and the empty one reads as the copying mode's.
	frame = encodeBodies(body('o', 1), nil, small)
	r.ResetBytesOwned(frame, 0)
	for i, want := range [][]byte{body('o', 1), nil, small} {
		got, err = r.ReadBytes()
		if err != nil || !bytes.Equal(got, want) || (len(want) > 0) != (len(got) > 0 && inFrame(got)) || cap(got) != len(got) {
			t.Fatalf("floor 0, body %d: %v, %d bytes of capacity %d, in frame %v", i, err, len(got), cap(got), len(got) > 0 && inFrame(got))
		}
		if want == nil && got != nil {
			t.Fatalf("floor 0: the empty body reads %#v, the copying mode's nil", got)
		}
	}
	if !r.Aliased() {
		t.Fatal("floor 0: views handed out, Aliased false")
	}
}

// TestOwnedValuesKeepToTheirOwnBytes decodes neighbouring values as views of
// one frame and then treats each as its owner would: appends to it, writes
// into it, reads a shorter value into it. None of that may reach the value
// next door.
func TestOwnedValuesKeepToTheirOwnBytes(t *testing.T) {
	n := 2 * wio.OwnedFloor
	var vals [3]types.BytesWritable
	var r wio.Reader
	r.ResetBytesOwned(encodeBodies(body('a', n), body('b', n), body('c', n)), wio.OwnedFloor)
	for i := range vals {
		if err := vals[i].ReadFields(&r); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Aliased() {
		t.Fatal("values of twice the floor were copied")
	}
	mid := &vals[1]
	mid.B = append(mid.B, "grown past its end"...)
	for i := range mid.B {
		mid.B[i] = 'X'
	}
	var again wio.Reader
	again.ResetBytes(encodeBodies(body('y', n/2)))
	if err := vals[0].ReadFields(&again); err != nil { // object reuse: fills a's view in place
		t.Fatal(err)
	}
	if !bytes.Equal(vals[0].B, body('y', n/2)) {
		t.Fatalf("reused value reads %q", vals[0].B[:8])
	}
	if !bytes.Equal(vals[2].B, body('c', n)) {
		t.Fatalf("the value behind the one appended to now starts %q", vals[2].B[:8])
	}
	vals[0].B = vals[0].B[:cap(vals[0].B)]
	if len(vals[0].B) != n {
		t.Fatalf("a's view spans %d bytes, its body had %d", len(vals[0].B), n)
	}
}
