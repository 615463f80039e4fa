package wio_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
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
// holder without capacity, and no others — and that the copying mode never
// does.
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
	r.ResetBytesOwned(frame)
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
}

// TestOwnedValuesKeepToTheirOwnBytes decodes neighbouring values as views of
// one frame and then treats each as its owner would: appends to it, writes
// into it, reads a shorter value into it. None of that may reach the value
// next door.
func TestOwnedValuesKeepToTheirOwnBytes(t *testing.T) {
	n := 2 * wio.OwnedFloor
	var vals [3]types.BytesWritable
	var r wio.Reader
	r.ResetBytesOwned(encodeBodies(body('a', n), body('b', n), body('c', n)))
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

// TestDecoderContinuesAcrossPieces cuts one Encoder stream between values and
// decodes the pieces one after the other: type ids and back-references reach
// across the cuts, ownership is per piece, and ResetBytes starts over.
func TestDecoderContinuesAcrossPieces(t *testing.T) {
	shared := types.NewBytes(body('s', 3*wio.OwnedFloor))
	vals := []wio.Writable{types.NewInt(1), shared, types.NewText("k"), shared, types.NewInt(2), shared}
	var sink bytes.Buffer
	enc := wio.NewEncoder(&sink, true)
	var cuts []int
	for _, v := range vals {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, sink.Len())
	}
	enc.Close()
	if enc.DedupHits() != 2 {
		t.Fatalf("%d back-references, want 2", enc.DedupHits())
	}
	frame := sink.Bytes()
	pieces := [][]byte{frame[:cuts[1]], frame[cuts[1]:cuts[3]], frame[cuts[3]:]}

	var dec wio.Decoder
	for round := 0; round < 2; round++ { // the second round is a pooled decoder's next stream
		var got []wio.Writable
		for i, p := range pieces {
			if i == 0 {
				dec.ResetBytes(p, true)
			} else {
				dec.ContinueBytes(p, false)
			}
			for dec.Remaining() > 0 && len(got) < len(vals) {
				v, err := dec.Decode()
				if err != nil {
					t.Fatalf("piece %d: %v", i, err)
				}
				got = append(got, v)
			}
			if want := i == 0; dec.Aliased() != want {
				t.Fatalf("piece %d: Aliased %v, want %v", i, dec.Aliased(), want)
			}
		}
		if err := dec.DecodeEnd(); err != nil || dec.Remaining() != 0 {
			t.Fatalf("end of stream: %v, %d bytes left", err, dec.Remaining())
		}
		for i, v := range vals {
			if !wio.Equal(got[i], v) {
				t.Fatalf("value %d: got %v, want %v", i, got[i], v)
			}
		}
		if got[1] != got[3] || got[3] != got[5] {
			t.Fatal("back-references across pieces did not arrive as aliases of one object")
		}
	}
}

// TestDecodeEndTellsMarkerFromSilence pins the three things that can sit
// where a counted stream should end.
func TestDecodeEndTellsMarkerFromSilence(t *testing.T) {
	var sink bytes.Buffer
	enc := wio.NewEncoder(&sink, false)
	enc.Encode(types.NewInt(7))
	noMarker := bytes.Clone(sink.Bytes())
	enc.Encode(types.NewInt(8))
	enc.Close()
	full := sink.Bytes()

	var dec wio.Decoder
	dec.ResetBytes(noMarker, false)
	dec.Decode()
	if err := dec.DecodeEnd(); !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "without its end-of-stream marker") {
		t.Errorf("stream that just stops: %v", err)
	}
	dec.ResetBytes(full, false)
	dec.Decode()
	if err := dec.DecodeEnd(); err == nil || !strings.Contains(err.Error(), "where the end-of-stream marker belongs") {
		t.Errorf("a value where the marker belongs: %v", err)
	}
	dec.ResetBytes(full, false)
	dec.Decode()
	dec.Decode()
	if err := dec.DecodeEnd(); err != nil || dec.Remaining() != 0 {
		t.Errorf("marker in place: %v, %d bytes left", err, dec.Remaining())
	}
}

// TestEncoderResetStartsAFreshStream: an Encoder reused through Reset writes
// the bytes a new one writes — types named again, object ids from zero,
// nothing remembered of the stream before — with de-duplication switched as
// asked.
func TestEncoderResetStartsAFreshStream(t *testing.T) {
	shared := types.NewText("shared")
	first := []wio.Writable{types.NewBytes([]byte("b")), shared, shared, nil}
	second := []wio.Writable{shared, types.NewInt(3), shared, types.NewLong(4), types.NewInt(5)}
	encodeAll := func(enc *wio.Encoder, vals []wio.Writable) {
		t.Helper()
		for _, v := range vals {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var reusedOut bytes.Buffer
	reused := wio.NewEncoder(&reusedOut, true)
	encodeAll(reused, first)
	for _, dedup := range []bool{true, false} {
		var freshOut bytes.Buffer
		fresh := wio.NewEncoder(&freshOut, dedup)
		encodeAll(fresh, second)
		reusedOut.Reset()
		reused.Reset(&reusedOut, dedup)
		encodeAll(reused, second)
		if !bytes.Equal(reusedOut.Bytes(), freshOut.Bytes()) {
			t.Errorf("dedup %v: reused encoder wrote %x, a new one %x", dedup, reusedOut.Bytes(), freshOut.Bytes())
		}
		if reused.DedupHits() != fresh.DedupHits() || reused.Count() != fresh.Count() {
			t.Errorf("dedup %v: reused encoder counts %d hits %d bytes, a new one %d and %d",
				dedup, reused.DedupHits(), reused.Count(), fresh.DedupHits(), fresh.Count())
		}
	}
}
