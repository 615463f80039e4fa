package hadoop

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"m3r/internal/spill"
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

// kvRec is one record collected in a kvBuffer test and the bytes it must
// read back as.
type kvRec struct {
	part       int
	key, value wio.Writable
}

// collectAll collects recs into b and checks that every view layOut makes
// is its record's serialized bytes, partition by partition in collect order.
// It returns the index entries.
func collectAll(t *testing.T, b *kvBuffer, parts int, recs []kvRec) []kvMeta {
	t.Helper()
	want := make([][]spill.Rec, parts)
	for i, r := range recs {
		got, err := b.collect(r.part, r.key, r.value)
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
		want[r.part] = append(want[r.part], spill.Rec{K: kb, V: vb})
	}
	b.layOut(parts)
	for p := range parts {
		got := b.partition(p)
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

// TestKVBufferMovesARecordWhole: a record that does not fit what is left
// of its chunk moves, the bytes it had written so far with it, to the start
// of the next chunk; the records before it stay where they were.
func TestKVBufferMovesARecordWhole(t *testing.T) {
	b := getKVBuffer()
	defer b.release()
	first := 1 << minKVChunkShift
	meta := collectAll(t, b, 2, []kvRec{
		{0, types.NewText("a"), types.NewBytes(bytes.Repeat([]byte{1}, first-600))},
		// The key fits behind the first record; the value, written in
		// pieces, does not.
		{1, types.NewText(string(bytes.Repeat([]byte{'k'}, 400))), &pieces{b: bytes.Repeat([]byte{2}, 1000), step: 100}},
		{0, types.NewText("c"), types.NewInt(3)},
	})
	if m := meta[1]; m.chunk != 1 || m.off != 0 {
		t.Errorf("the second record is at chunk %d offset %d, want the start of chunk 1", m.chunk, m.off)
	}
	if m := meta[2]; m.chunk != 1 || m.off != meta[1].klen+meta[1].vlen {
		t.Errorf("the third record is at chunk %d offset %d, want chunk 1 right after the second", m.chunk, m.off)
	}
	if got, want := cap(b.chunks[1]), 2*first; got != want {
		t.Errorf("chunk 1 holds %d bytes, want the ladder's %d", got, want)
	}
}

// TestKVBufferRecordAboveCeiling: a record larger than the chunk ceiling
// gets a chunk of its own size, the records after it continue behind it,
// and the reset drops that chunk and keeps the ladder's.
func TestKVBufferRecordAboveCeiling(t *testing.T) {
	b := getKVBuffer()
	defer b.release()
	huge := 3 << maxKVChunkShift
	meta := collectAll(t, b, 1, []kvRec{
		{0, types.NewText("small"), types.NewInt(1)},
		{0, types.NewText("huge"), types.NewBytes(bytes.Repeat([]byte{7}, huge))},
		{0, types.NewText("after"), types.NewInt(2)},
	})
	big := meta[1].chunk
	if c := b.chunks[big]; meta[1].off != 0 || cap(c) < huge || cap(c) <= 1<<maxKVChunkShift {
		t.Errorf("the huge record is at offset %d of a %d-byte chunk", meta[1].off, cap(c))
	}
	if meta[2].chunk != big {
		t.Errorf("the record after the huge one is in chunk %d, want %d", meta[2].chunk, big)
	}
	b.reset()
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
// serialization fails leaves no bytes and no index entry behind.
func TestKVBufferFailedCollectLeavesNoRecord(t *testing.T) {
	b := getKVBuffer()
	defer b.release()
	if _, err := b.collect(0, types.NewText("ok"), types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	used := len(b.buf)
	for _, r := range []kvRec{{0, failing{}, types.NewInt(1)}, {0, types.NewText("k"), failing{}}} {
		if _, err := b.collect(r.part, r.key, r.value); err == nil {
			t.Fatal("a failing writable collected")
		}
		if len(b.meta) != 1 || len(b.buf) != used {
			t.Fatalf("after a failed collect: %d records, %d bytes, want 1 and %d", len(b.meta), len(b.buf), used)
		}
	}
}

// TestKVBufferEmptyRecords: records of no bytes, NullWritable's, collect
// and lay out in a buffer that has no chunk yet, and then among records
// that have bytes.
func TestKVBufferEmptyRecords(t *testing.T) {
	b := newKVBuffer()
	defer b.release()
	collectAll(t, b, 2, []kvRec{
		{0, types.Null(), types.Null()},
		{1, types.Null(), types.Null()},
	})
	b.reset()
	collectAll(t, b, 2, []kvRec{
		{1, types.Null(), types.Null()},
		{0, types.NewText("k"), types.Null()},
		{1, types.Null(), types.NewInt(1)},
		{0, types.Null(), types.Null()},
	})
}

// TestReleasedKVBufferHoldsNoRecord: a released buffer goes back to the
// pool with no index entry and no view left, each view slot cleared and
// every chunk poisoned (TestMain sets the hook), so no record outlives its
// task; it keeps the ladder's chunks and its scratch's capacity.
func TestReleasedKVBufferHoldsNoRecord(t *testing.T) {
	b := getKVBuffer()
	var recs []kvRec
	for i := range 300 {
		recs = append(recs, kvRec{i % 3, types.NewText(fmt.Sprintf("key-%d", i)), types.NewLong(int64(i))})
	}
	collectAll(t, b, 3, recs)
	view := b.partition(1)[0]
	views := b.recs // shares the slots release clears
	b.release()
	if len(b.meta) != 0 || len(b.recs) != 0 || cap(b.recs) < len(recs) || len(b.chunks) == 0 {
		t.Errorf("released: %d records, %d views (cap %d), %d chunks", len(b.meta), len(b.recs), cap(b.recs), len(b.chunks))
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

// BenchmarkHadoopCollect is the Hadoop map task's collect: records
// serialized into the sort buffer's arena, 4 096 a spill, and the arena
// reset as a spill resets it. Rows: WordCount's (Text, Int) and the
// shuffle microbenchmark's 2 KiB values; ns/rec and allocs/rec.
func BenchmarkHadoopCollect(b *testing.B) {
	const perSpill = 4096
	// A reset poisons every chunk under the test hook; time the collect.
	defer PoisonRecycledChunks.Store(PoisonRecycledChunks.Swap(false))
	keys := make([]wio.Writable, 512)
	for i := range keys {
		keys[i] = types.NewText(fmt.Sprintf("word-%d", i))
	}
	for _, row := range []struct {
		name  string
		value wio.Writable
	}{
		{"text-int", types.NewInt(1)},
		{"2KiB-values", types.NewBytes(bytes.Repeat([]byte{'v'}, 2048))},
	} {
		b.Run(row.name, func(b *testing.B) {
			kv := getKVBuffer()
			defer kv.release()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				for i := range perSpill {
					if _, err := kv.collect(i%4, keys[i%len(keys)], row.value); err != nil {
						b.Fatal(err)
					}
				}
				kv.reset()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			recs := float64(b.N) * perSpill
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/rec")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/recs, "allocs/rec")
		})
	}
}
