package spill

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
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

// TestKVBufferMovesAnObjectWhole: an object that does not fit what is left
// of its chunk moves, the bytes it had written so far with it, to the start
// of the next chunk; the objects before it — its record's key among them —
// stay where they were.
func TestKVBufferMovesAnObjectWhole(t *testing.T) {
	b := GetBuffer()
	defer b.Release()
	first := 1 << minChunkShift
	meta := collectAll(t, b, 2, []kvRec{
		{0, types.NewText("a"), types.NewBytes(bytes.Repeat([]byte{1}, first-600))},
		// The key fits behind the first record; the value, written in
		// pieces, does not.
		{1, types.NewText(string(bytes.Repeat([]byte{'k'}, 400))), &pieces{b: bytes.Repeat([]byte{2}, 1000), step: 100}},
		{0, types.NewText("c"), types.NewInt(3)},
	})
	if k, v := meta[1].k, meta[0].v; chunkOf(b, k) != 0 || k.off != v.off+v.n {
		t.Errorf("the second key is at chunk %d offset %d, want chunk 0 right after the first value", chunkOf(b, k), k.off)
	}
	if v := meta[1].v; chunkOf(b, v) != 1 || int(v.off) != b.starts[1] || b.starts[1] != int(meta[1].k.off+meta[1].k.n) {
		t.Errorf("the second value is at chunk %d offset %d, want the start of chunk 1, right after its key", chunkOf(b, v), v.off)
	}
	if k := meta[2].k; chunkOf(b, k) != 1 || k.off != meta[1].v.off+meta[1].v.n {
		t.Errorf("the third key is at chunk %d offset %d, want chunk 1 right after the second value", chunkOf(b, k), k.off)
	}
	if got, want := cap(b.chunks[1]), 2*first; got != want {
		t.Errorf("chunk 1 holds %d bytes, want the ladder's %d", got, want)
	}
}

// TestKVBufferRecordAboveCeiling: a value larger than the chunk ceiling
// gets a chunk of its own size, the records after it continue behind it,
// and the reset drops that chunk and keeps the ladder's.
func TestKVBufferRecordAboveCeiling(t *testing.T) {
	b := GetBuffer()
	defer b.Release()
	huge := 3 << maxChunkShift
	meta := collectAll(t, b, 1, []kvRec{
		{0, types.NewText("small"), types.NewInt(1)},
		{0, types.NewText("huge"), types.NewBytes(bytes.Repeat([]byte{7}, huge))},
		{0, types.NewText("after"), types.NewInt(2)},
	})
	big := chunkOf(b, meta[1].v)
	if c := b.chunks[big]; int(meta[1].v.off) != b.starts[big] || cap(c) < huge || cap(c) <= 1<<maxChunkShift {
		t.Errorf("the huge value is at offset %d of a %d-byte chunk", int(meta[1].v.off)-b.starts[big], cap(c))
	}
	if chunkOf(b, meta[2].k) != big {
		t.Errorf("the record after the huge one is in chunk %d, want %d", chunkOf(b, meta[2].k), big)
	}
	b.Reset()
	if b.chunks[big] != nil {
		t.Errorf("reset kept the %d-byte chunk", cap(b.chunks[big]))
	}
	if b.chunks[0] == nil {
		t.Error("reset dropped the first chunk")
	}
	// The next spill's records write over the kept chunks and read back.
	collectAll(t, b, 1, []kvRec{
		{0, types.NewText("again"), types.NewBytes(bytes.Repeat([]byte{8}, huge))},
	})
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
	cur, used := b.cur, len(b.buf)
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
		if len(b.meta) != 1 || b.cur != cur || len(b.buf) != used || b.hits != 0 || len(b.seen) != 0 {
			t.Fatalf("after a failed collect: %d records, chunk %d, %d bytes, %d hits, %d identities; want 1, %d, %d, 0, 0",
				len(b.meta), b.cur, len(b.buf), b.hits, len(b.seen), cur, used)
		}
	}
	// The next record writes where the failed ones started.
	rec, err := b.Collect(1, types.NewText("next"), types.NewInt(2), false)
	if err != nil {
		t.Fatal(err)
	}
	if m := b.meta[1]; int(m.k.off) != b.starts[cur]+used || string(rec.K[1:]) != "next" {
		t.Errorf("the record after the failures is at %d, want %d", m.k.off, b.starts[cur]+used)
	}
}

// chunkOf is the chunk of the arena that holds s.
func chunkOf(b *Buffer, s span) int {
	return sort.SearchInts(b.starts[:b.cur+1], int(s.off)+1) - 1
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
// the scratch goes back to its own pool and every chunk poisoned
// (PoisonRecycledBlocks), so no record outlives its task; it keeps the
// ladder's chunks and its index's capacity.
func TestReleasedKVBufferHoldsNoRecord(t *testing.T) {
	defer PoisonRecycledBlocks.Store(PoisonRecycledBlocks.Swap(true))
	b := GetBuffer()
	var recs []kvRec
	for i := range 300 {
		recs = append(recs, kvRec{i % 3, types.NewText(fmt.Sprintf("key-%d", i)), types.NewLong(int64(i))})
	}
	collectAll(t, b, 3, recs)
	view := b.Partition(1)[0]
	views := b.sc.recs // shares the slots release clears
	b.Release()
	if len(b.meta) != 0 || cap(b.meta) < len(recs) || b.sc != nil || len(b.chunks) == 0 {
		t.Errorf("released: %d records (cap %d), scratch held %v, %d chunks", len(b.meta), cap(b.meta), b.sc != nil, len(b.chunks))
	}
	for i, r := range views {
		if r.K != nil || r.V != nil {
			t.Fatalf("view slot %d still holds a record", i)
		}
	}
	if !bytes.Equal(view.K, bytes.Repeat([]byte{0xDB}, len(view.K))) {
		t.Errorf("a view kept past release reads %x, not the poison", view.K)
	}
}
