package hadoop

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/engine"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
)

func marshalInt(t *testing.T, v int32) []byte {
	t.Helper()
	b, err := wio.Marshal(types.NewInt(v))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMergerProducesGlobalOrder merges several sorted segments and checks
// global sorted order with stable tie-breaks.
func TestMergerProducesGlobalOrder(t *testing.T) {
	dir := t.TempDir()
	var streams []engine.RecSource
	// Three sorted runs with interleaved and duplicate keys.
	runs := [][]int32{
		{1, 4, 7, 7, 100},
		{2, 4, 8},
		{0, 4, 9, 101},
	}
	for i, run := range runs {
		path := filepath.Join(dir, "run", string(rune('a'+i)))
		os.MkdirAll(filepath.Dir(path), 0o755)
		f, _ := os.Create(path)
		w := bufio.NewWriter(f)
		sw := spill.NewSegmentWriter(w, spill.CodecNone)
		for _, v := range run {
			if err := sw.Write(spill.Rec{K: marshalInt(t, v), V: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		total, _, err := sw.Finish()
		if err != nil {
			t.Fatal(err)
		}
		w.Flush()
		f.Close()
		s, err := spill.OpenSegment(path, spill.Segment{Off: 0, Len: total})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, s)
	}
	// The map-side merge of a job with IntWritable keys.
	cmp := types.IntRawComparator{}
	rj := &engine.ResolvedJob{SortCmp: cmp, GroupCmp: cmp, RawSortCmp: cmp, RawGroupCmp: cmp, GroupsBySort: true}
	m, err := rj.OpenRawMerge(streams, types.IntName, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var got []int32
	var srcOfFours []byte
	for {
		r, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out := &types.IntWritable{}
		wio.Unmarshal(r.K, out)
		got = append(got, out.Get())
		if out.Get() == 4 {
			srcOfFours = append(srcOfFours, r.V[0])
		}
	}
	want := []int32{0, 1, 2, 4, 4, 4, 7, 7, 8, 9, 100, 101}
	if len(got) != len(want) {
		t.Fatalf("merged %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: %d want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	// Ties resolve by stream index: sources 0, 1, 2.
	if string(srcOfFours) != "\x00\x01\x02" {
		t.Errorf("tie-break order: %v", srcOfFours)
	}
}

// TestMapSideMergeAcrossBlocks: a map task whose output spilled several
// times merges the spills into its output file record by record, and each
// record is written after the merge has moved its source on — across block
// boundaries of multi-block segments, with recycled blocks poisoned
// (TestMain). Every partition's merged segment must be byte for byte the
// segment of the stably sorted records, per codec.
func TestMapSideMergeAcrossBlocks(t *testing.T) {
	for _, codec := range []spill.Codec{spill.CodecNone, spill.CodecFlate} {
		job := conf.NewJob()
		job.SetMapOutputKeyClass(types.TextName)
		job.SetMapOutputValueClass(types.LongName)
		job.SetNumReduceTasks(2)
		rj, err := engine.Resolve(job)
		if err != nil {
			t.Fatal(err)
		}
		rawCmp, err := rj.RawKeyComparator(types.TextName)
		if err != nil {
			t.Fatal(err)
		}
		run := &jobRun{
			engine: &Engine{host: &engine.Host{Stats: sim.NewStats()}, cost: sim.Zero()},
			Job:    &engine.Job{Conf: job, Resolved: rj, Codec: codec},
		}
		b := &sortBuffer{
			run: run, taskDir: t.TempDir(), parts: make([][]spill.Rec, 2),
			limit: 256 << 10, cmp: rawCmp, ctx: engine.NewTaskContext(job, "map", nil),
		}
		// Keys share a prefix longer than a sort prefix and repeat, so ties
		// across spills and raw comparisons are the common case.
		rng := rand.New(rand.NewSource(int64(codec) + 1))
		var want [2][]spill.Rec
		for i := 0; i < 30000; i++ {
			kb, err := wio.Marshal(types.NewText(fmt.Sprintf("a-shared-key-prefix-%03d", rng.Intn(300))))
			if err != nil {
				t.Fatal(err)
			}
			vb, err := wio.Marshal(types.NewLong(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			rec := spill.Rec{K: kb, V: vb}
			want[i%2] = append(want[i%2], rec)
			if err := b.add(i%2, rec); err != nil {
				t.Fatal(err)
			}
		}
		out, err := b.finish(0, "node0")
		if err != nil {
			t.Fatal(err)
		}
		if len(b.spills) < 3 {
			t.Fatalf("%s: %d spills, the test needs a merge of three or more", codec, len(b.spills))
		}
		data, err := os.ReadFile(out.file)
		if err != nil {
			t.Fatal(err)
		}
		for p := range want {
			spill.SortRecs(want[p], rawCmp)
			enc, err := spill.EncodeRun(want[p], codec)
			if err != nil {
				t.Fatal(err)
			}
			seg := out.segments[p]
			if got := data[seg.Off : seg.Off+seg.Len]; !bytes.Equal(got, enc.Data) {
				t.Fatalf("%s: partition %d merged into %d bytes that differ from the %d of its sorted records",
					codec, p, len(got), len(enc.Data))
			}
		}
	}
}

// TestReleasedPartsHoldNoRecord: a map task's sort-buffer partitions go back
// to the pool empty, each keeping its capacity with every slot cleared, so
// no record outlives its task.
func TestReleasedPartsHoldNoRecord(t *testing.T) {
	b := &sortBuffer{parts: sortParts(3)}
	for i := range 100 {
		b.parts[i%3] = append(b.parts[i%3], spill.Rec{K: []byte("k"), V: []byte("v")})
	}
	parts := b.parts // shares the partitions release empties
	b.release()
	for p, recs := range parts {
		if len(recs) != 0 || cap(recs) < 33 {
			t.Errorf("partition %d: len %d, cap %d after release", p, len(recs), cap(recs))
		}
		for i, r := range recs[:cap(recs)] {
			if r.K != nil || r.V != nil {
				t.Fatalf("partition %d slot %d still holds a record", p, i)
			}
		}
	}
}
