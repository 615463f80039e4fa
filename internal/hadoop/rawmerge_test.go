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
	"m3r/internal/wordcount"
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
// boundaries of multi-block segments, with recycled blocks and recycled
// sort-buffer chunks poisoned (TestMain). Under the tiny limit the task
// spills dozens of times, each spill reusing the chunks the one before it
// wrote. Every partition's merged segment must be byte for byte the segment
// of the stably sorted records, per codec, limit and combiner; with
// WordCount's combiner those are each spill's combined records, which
// SPILLED_RECORDS counts.
func TestMapSideMergeAcrossBlocks(t *testing.T) {
	for _, codec := range []spill.Codec{spill.CodecNone, spill.CodecFlate} {
		for _, limit := range []int64{256 << 10, 16 << 10} {
			for _, combine := range []bool{false, true} {
				mapSideMerge(t, codec, limit, combine)
			}
		}
	}
}

func mapSideMerge(t *testing.T, codec spill.Codec, limit int64, combine bool) {
	t.Helper()
	job := conf.NewJob()
	job.SetMapOutputKeyClass(types.TextName)
	job.SetMapOutputValueClass(types.IntName)
	if combine {
		job.SetCombinerClass(wordcount.SumReducerName)
	}
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
		run: run, taskDir: t.TempDir(), kv: spill.GetBuffer(), parts: 2,
		limit: limit, cmp: rawCmp, ctx: engine.NewTaskContext(job, "map", nil),
	}
	defer b.kv.Release()
	// Keys share a prefix longer than a sort prefix and repeat, so ties
	// across spills and raw comparisons are the common case. The records
	// are split into spills where the buffer's accounting splits them.
	rng := rand.New(rand.NewSource(int64(codec) + limit))
	var spills [][2][]spill.Rec
	var cur [2][]spill.Rec
	var wantBytes, size int64
	const n = 30000
	for i := 0; i < n; i++ {
		key, value := types.NewText(fmt.Sprintf("a-shared-key-prefix-%03d", rng.Intn(300))), types.NewInt(int32(i%7))
		kb, err := wio.Marshal(key)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := wio.Marshal(value)
		if err != nil {
			t.Fatal(err)
		}
		r := spill.Rec{K: kb, V: vb}
		cur[i%2] = append(cur[i%2], r)
		wantBytes += int64(len(kb) + len(vb))
		if size += r.Size(); size >= limit {
			spills, cur, size = append(spills, cur), [2][]spill.Rec{}, 0
		}
		if err := b.collect(i%2, key, value); err != nil {
			t.Fatal(err)
		}
	}
	spills = append(spills, cur) // finish's
	var want [2][]spill.Rec
	var wantSpilled int64
	for _, sp := range spills {
		for p, recs := range sp {
			if combine {
				recs = sumSorted(t, recs, rawCmp)
			}
			want[p] = append(want[p], recs...)
			wantSpilled += int64(len(recs))
		}
	}
	out, err := b.finish(0, "node0")
	if err != nil {
		t.Fatal(err)
	}
	minSpills := 3
	if limit < 64<<10 {
		minSpills = 30
	}
	if len(b.spills) != len(spills) || len(b.spills) < minSpills {
		t.Fatalf("%s, limit %d: %d spills, want %d, and the test needs %d or more", codec, limit, len(b.spills), len(spills), minSpills)
	}
	if combine && wantSpilled >= n {
		t.Fatalf("%s, limit %d: the combiner merged no record", codec, limit)
	}
	cells := &b.ctx.Cells
	if got := cells.MapOutputRecords.Value(); got != n {
		t.Errorf("%s, limit %d, combine %v: MAP_OUTPUT_RECORDS %d, want %d", codec, limit, combine, got, n)
	}
	if got := cells.SpilledRecords.Value(); got != wantSpilled {
		t.Errorf("%s, limit %d, combine %v: SPILLED_RECORDS %d, want %d", codec, limit, combine, got, wantSpilled)
	}
	if got := cells.MapOutputBytes.Value(); got != wantBytes {
		t.Errorf("%s, limit %d, combine %v: MAP_OUTPUT_BYTES %d, want %d", codec, limit, combine, got, wantBytes)
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
			t.Fatalf("%s, limit %d, combine %v: partition %d merged into %d bytes that differ from the %d of its sorted records",
				codec, limit, combine, p, len(got), len(enc.Data))
		}
	}
}

// sumSorted is WordCount's combiner over one spilled partition: recs
// sorted, then each run of equal keys folded into one record of their
// IntWritable values' sum.
func sumSorted(t *testing.T, recs []spill.Rec, cmp wio.RawComparator) []spill.Rec {
	t.Helper()
	spill.SortRecs(recs, cmp)
	var out []spill.Rec
	var sum int32
	for i, r := range recs {
		v := &types.IntWritable{}
		if err := wio.Unmarshal(r.V, v); err != nil {
			t.Fatal(err)
		}
		sum += v.Get()
		if i+1 < len(recs) && bytes.Equal(recs[i+1].K, r.K) {
			continue
		}
		out = append(out, spill.Rec{K: r.K, V: marshalInt(t, sum)})
		sum = 0
	}
	return out
}
