package spill

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"m3r/internal/types"
	"m3r/internal/wio"
)

// pieces is a value that serializes its bytes in writes of step bytes, as
// a large array-bearing Writable does.
type pieces struct {
	b    []byte
	step int
}

func (v *pieces) WriteTo(w *wio.Writer) error {
	for b := v.b; len(b) > 0; b = b[min(v.step, len(b)):] {
		if _, err := w.Write(b[:min(v.step, len(b))]); err != nil {
			return err
		}
	}
	return nil
}

func (v *pieces) ReadFields(*wio.Reader) error { return errors.New("pieces: write only") }

// failing writes a few bytes, then fails.
type failing struct{}

func (failing) WriteTo(w *wio.Writer) error {
	w.Write([]byte("partial"))
	return errors.New("failing: refused")
}

func (failing) ReadFields(*wio.Reader) error { return nil }

// kvRec is one record collected in a Buffer test and the bytes it must
// read back as.
type kvRec struct {
	part       int
	key, value wio.Writable
}

// collectAll collects recs into b and checks that every view layOut makes
// is its record's serialized bytes, partition by partition in collect order.
// It returns the index entries.
func collectAll(t *testing.T, b *Buffer, parts int, recs []kvRec) []kvMeta {
	t.Helper()
	want := make([][]Rec, parts)
	for i, r := range recs {
		got, err := b.Collect(r.part, r.key, r.value, false)
		if err != nil {
			t.Fatal(err)
		}
		kb, _ := wio.Marshal(r.key)
		var vb []byte
		if p, ok := r.value.(*pieces); ok {
			vb = p.b
		} else {
			vb, _ = wio.Marshal(r.value)
		}
		if !bytes.Equal(got.K, kb) || !bytes.Equal(got.V, vb) {
			t.Fatalf("record %d: collect returned a view of %d+%d bytes that differs from its %d+%d", i, len(got.K), len(got.V), len(kb), len(vb))
		}
		want[r.part] = append(want[r.part], Rec{K: kb, V: vb})
	}
	b.LayOut(parts)
	for p := range parts {
		got := b.Partition(p)
		if len(got) != len(want[p]) {
			t.Fatalf("partition %d: %d views, want %d", p, len(got), len(want[p]))
		}
		for i := range got {
			if !bytes.Equal(got[i].K, want[p][i].K) || !bytes.Equal(got[i].V, want[p][i].V) {
				t.Fatalf("partition %d record %d reads back differently", p, i)
			}
		}
	}
	return b.meta
}

// TestKVBufferViewsAcrossChunks: the views Collect and LayOut make read
// back as their records' bytes when a value moved to the next chunk away
// from its key, when one needed a chunk above the ceiling, and for the
// records behind it; then again after a reset, over the kept chunks.
func TestKVBufferViewsAcrossChunks(t *testing.T) {
	b := GetBuffer()
	defer b.Release()
	first, huge := 1<<minChunkShift, 3<<maxChunkShift
	recs := []kvRec{
		{0, types.NewText("a"), types.NewBytes(bytes.Repeat([]byte{1}, first-600))},
		// The key fits behind the first record; the value, written in
		// pieces, does not.
		{1, types.NewText(string(bytes.Repeat([]byte{'k'}, 400))), &pieces{b: bytes.Repeat([]byte{2}, 1000), step: 100}},
		{0, types.NewText("huge"), types.NewBytes(bytes.Repeat([]byte{7}, huge))},
		{1, types.NewText("after"), types.NewInt(3)},
	}
	collectAll(t, b, 2, recs)
	b.Reset()
	collectAll(t, b, 2, recs)
}

// TestKVBufferFailedCollectLeavesNoRecord: a key or value whose
// serialization fails leaves no bytes, no index entry and no identity
// behind, also when the failing value had moved to a new chunk.
func TestKVBufferFailedCollectLeavesNoRecord(t *testing.T) {
	b := GetBuffer()
	defer b.Release()
	big := types.NewBytes(bytes.Repeat([]byte{'b'}, 64))
	if _, err := b.Collect(0, types.NewText("ok"), big, true); err != nil {
		t.Fatal(err)
	}
	cur, used := b.a.cur, len(b.a.buf)
	for _, r := range []kvRec{
		{0, big, failing{}}, // a back-reference, then a failure
		{0, failing{}, types.NewInt(1)},
		{0, types.NewText("k"), failing{}},
		// The value moves to a new chunk before it fails.
		{0, types.NewText("k"), &pieces{b: bytes.Repeat([]byte{2}, 8<<10), step: 4 << 10}},
	} {
		if f, ok := r.value.(*pieces); ok {
			r.value = failAfter{f}
		}
		if _, err := b.Collect(r.part, r.key, r.value, true); err == nil {
			t.Fatal("a failing writable collected")
		}
		if len(b.meta) != 1 || b.a.cur != cur || len(b.a.buf) != used || b.hits != 0 || len(b.seen) != 0 {
			t.Fatalf("after a failed collect: %d records, chunk %d, %d bytes, %d hits, %d identities; want 1, %d, %d, 0, 0",
				len(b.meta), b.a.cur, len(b.a.buf), b.hits, len(b.seen), cur, used)
		}
	}
	// The next record writes where the failed ones started.
	rec, err := b.Collect(1, types.NewText("next"), types.NewInt(2), false)
	if err != nil {
		t.Fatal(err)
	}
	if m := b.meta[1]; int(m.k.off) != b.a.starts[cur]+used || string(rec.K[1:]) != "next" {
		t.Errorf("the record after the failures is at %d, want %d", m.k.off, b.a.starts[cur]+used)
	}
}

// failAfter writes its pieces, then fails.
type failAfter struct{ *pieces }

func (f failAfter) WriteTo(w *wio.Writer) error {
	f.pieces.WriteTo(w)
	return errors.New("failAfter: refused")
}

// TestKVBufferEmptyRecords: records of no bytes, NullWritable's, collect
// and lay out in a buffer that has no chunk yet, and then among records
// that have bytes.
func TestKVBufferEmptyRecords(t *testing.T) {
	b := buffers.New().(*Buffer) // no chunk yet
	defer b.Release()
	collectAll(t, b, 2, []kvRec{
		{0, types.Null(), types.Null()},
		{1, types.Null(), types.Null()},
	})
	b.Reset()
	collectAll(t, b, 2, []kvRec{
		{1, types.Null(), types.Null()},
		{0, types.NewText("k"), types.Null()},
		{1, types.Null(), types.NewInt(1)},
		{0, types.Null(), types.Null()},
	})
}

// TestReleasedKVBufferHoldsNoRecord: a released buffer goes back to the
// pool with no index entry and no view left, each view slot cleared before
// the scratch goes back to its own pool, so no record outlives its task; it
// keeps its index's capacity. (Its arena's reset: TestArenaResetPoisonsWhatItKeeps.)
func TestReleasedKVBufferHoldsNoRecord(t *testing.T) {
	b := GetBuffer()
	var recs []kvRec
	for i := range 300 {
		recs = append(recs, kvRec{i % 3, types.NewText(fmt.Sprintf("key-%d", i)), types.NewLong(int64(i))})
	}
	collectAll(t, b, 3, recs)
	views := b.sc.recs // shares the slots release clears
	b.Release()
	if len(b.meta) != 0 || cap(b.meta) < len(recs) || b.sc != nil {
		t.Errorf("released: %d records (cap %d), scratch held %v", len(b.meta), cap(b.meta), b.sc != nil)
	}
	for i, r := range views {
		if r.K != nil || r.V != nil {
			t.Fatalf("view slot %d still holds a record", i)
		}
	}
}
