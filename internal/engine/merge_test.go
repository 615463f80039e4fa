package engine_test

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"m3r/internal/engine"
	"m3r/internal/spill"
	"m3r/internal/testenv"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// makeRuns builds k sorted runs with duplicate-heavy keys. Every value is a
// unique global sequence number so stability violations are observable:
// with keys drawn from a small space, equal keys must surface in
// (run index, position within run) order.
func makeRuns(rng *rand.Rand, k, maxLen, keySpace int) [][]wio.Pair {
	runs := make([][]wio.Pair, k)
	seq := 0
	for i := range runs {
		n := rng.Intn(maxLen + 1)
		run := make([]wio.Pair, 0, n)
		for j := 0; j < n; j++ {
			run = append(run, wio.Pair{
				Key:   types.NewInt(int32(rng.Intn(keySpace))),
				Value: types.NewLong(int64(seq)),
			})
			seq++
		}
		engine.SortPairs(run, wio.NaturalOrder{})
		runs[i] = run
	}
	return runs
}

// sortedReference reproduces the engine's former reduce path: concatenate
// the runs in order and stable-sort the whole partition.
func sortedReference(runs [][]wio.Pair, cmp wio.Comparator) []wio.Pair {
	var all []wio.Pair
	for _, r := range runs {
		all = append(all, r...)
	}
	engine.SortPairs(all, cmp)
	return all
}

func pairBytes(t testing.TB, p wio.Pair) ([]byte, []byte) {
	t.Helper()
	kb, err := wio.Marshal(p.Key)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := wio.Marshal(p.Value)
	if err != nil {
		t.Fatal(err)
	}
	return kb, vb
}

// requireIdentical asserts got is byte-identical to want, the acceptance
// bar for swapping the merge in for the old sort: reducers must observe
// exactly the same input sequence.
func requireIdentical(t *testing.T, want, got []wio.Pair) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("length mismatch: want %d pairs, got %d", len(want), len(got))
	}
	for i := range want {
		wk, wv := pairBytes(t, want[i])
		gk, gv := pairBytes(t, got[i])
		if string(wk) != string(gk) || string(wv) != string(gv) {
			t.Fatalf("pair %d differs: want (%x,%x), got (%x,%x)", i, wk, wv, gk, gv)
		}
	}
}

// openMerge opens the merge every reduce task runs over in-memory runs: a
// MergeIter over one slice reader per run.
func openMerge(t testing.TB, runs [][]wio.Pair, cmp wio.Comparator) *engine.MergeIter {
	t.Helper()
	readers := make([]engine.RunReader, len(runs))
	for i, run := range runs {
		readers[i] = engine.NewSliceRunReader(run)
	}
	it, err := engine.NewMergeIter(readers, cmp)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// mergeRuns drains openMerge into a slice.
func mergeRuns(t *testing.T, runs [][]wio.Pair, cmp wio.Comparator) []wio.Pair {
	t.Helper()
	it := openMerge(t, runs, cmp)
	defer it.Close()
	return drainIter(t, it)
}

// TestMergeRunsMatchesSort is the property test for the loser-tree merge:
// over many random shapes (run counts, lengths, duplicate densities), the
// merged output must be byte-identical to the old concatenate-and-stable-
// sort path.
func TestMergeRunsMatchesSort(t *testing.T) {
	cmp := types.IntRawComparator{}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(9)
		keySpace := 1 + rng.Intn(12) // small: lots of cross-run duplicates
		t.Run(fmt.Sprintf("seed%d_k%d_keys%d", seed, k, keySpace), func(t *testing.T) {
			runs := makeRuns(rng, k, 64, keySpace)
			want := sortedReference(runs, cmp)
			requireIdentical(t, want, mergeRuns(t, runs, cmp))
		})
	}
}

// TestPairMergesMatchTheSort: merges opened in the rooms of one PairMerges
// layout — every room, each opened again over fewer runs and over none, and
// after a merge abandoned where its last run leads, as a failed attempt
// leaves its room — stream exactly what the stable sort of their runs does,
// read through the layout's cancel check, which surfaces a kill as the
// stream's error. Opening a merge in a room allocates nothing.
func TestPairMergesMatchTheSort(t *testing.T) {
	cmp := types.IntRawComparator{}
	rng := rand.New(rand.NewSource(7))
	lc := engine.NewJobLifecycle()
	var p engine.PairMerges
	const rooms, k = 3, 5
	p.LayOut(rooms, k, cmp, lc)
	check := func(i int, runs [][]wio.Pair) {
		t.Helper()
		it, in, err := p.Open(i, len(runs), func(j int) []wio.Pair { return runs[j] })
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, sortedReference(runs, cmp), drainIter(t, in))
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []int{k, 2, 1, 0, k} {
		for i := range rooms {
			check(i, makeRuns(rng, m, 40, 6))
		}
	}
	// Runs whose heads sort 2, 3, 1: the last run leads.
	last := [][]wio.Pair{
		{{Key: types.NewInt(2), Value: types.NewInt(0)}},
		{{Key: types.NewInt(3), Value: types.NewInt(1)}},
		{{Key: types.NewInt(1), Value: types.NewInt(2)}},
	}
	abandoned, _, err := p.Open(1, len(last), func(j int) []wio.Pair { return last[j] })
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := abandoned.Peek(); !ok || p.Value.(*types.IntWritable).V != 2 {
		t.Fatalf("the merge leads with %v, want its last run's pair", p)
	}
	check(1, makeRuns(rng, 1, 40, 6))

	if !testenv.Race {
		runs := makeRuns(rng, k, 40, 6)
		if n := testing.AllocsPerRun(20, func() {
			it, _, err := p.Open(2, k, func(j int) []wio.Pair { return runs[j] })
			if err != nil {
				t.Fatal(err)
			}
			it.Close()
		}); n != 0 {
			t.Errorf("opening a merge in its room: %.1f allocations, want 0", n)
		}
	}
	_, in, err := p.Open(0, 2, func(j int) []wio.Pair { return last[j] })
	if err != nil {
		t.Fatal(err)
	}
	lc.Kill(engine.ErrJobKilled)
	if _, ok, err := in.Next(); ok || !errors.Is(err, engine.ErrJobKilled) {
		t.Fatalf("after the kill: ok=%v err=%v, want the cancellation cause", ok, err)
	}
}

// TestMergeRunsAllEqualKeys pins the pure-stability case: every key equal,
// so the output must be exactly the runs concatenated in order.
func TestMergeRunsAllEqualKeys(t *testing.T) {
	var runs [][]wio.Pair
	seq := 0
	for i := 0; i < 5; i++ {
		var run []wio.Pair
		for j := 0; j <= i; j++ {
			run = append(run, wio.Pair{
				Key:   types.NewInt(7),
				Value: types.NewLong(int64(seq)),
			})
			seq++
		}
		runs = append(runs, run)
	}
	got := mergeRuns(t, runs, types.IntRawComparator{})
	if len(got) != seq {
		t.Fatalf("want %d pairs, got %d", seq, len(got))
	}
	for i, p := range got {
		if v := p.Value.(*types.LongWritable).Get(); v != int64(i) {
			t.Fatalf("stability broken at %d: got value %d", i, v)
		}
	}
}

// TestMergeRunsEdges covers the degenerate shapes: no runs, all-empty
// runs, a single run, and interleaved empty runs.
func TestMergeRunsEdges(t *testing.T) {
	cmp := types.IntRawComparator{}
	if got := mergeRuns(t, nil, cmp); len(got) != 0 {
		t.Errorf("nil runs: want empty, got %d pairs", len(got))
	}
	if got := mergeRuns(t, [][]wio.Pair{nil, {}, nil}, cmp); len(got) != 0 {
		t.Errorf("empty runs: want empty, got %d pairs", len(got))
	}
	single := []wio.Pair{
		{Key: types.NewInt(1), Value: types.NewLong(10)},
		{Key: types.NewInt(2), Value: types.NewLong(11)},
	}
	requireIdentical(t, single, mergeRuns(t, [][]wio.Pair{nil, single, nil}, cmp))

	rng := rand.New(rand.NewSource(99))
	runs := makeRuns(rng, 6, 16, 4)
	runs[0], runs[3] = nil, nil // empty runs between live ones
	requireIdentical(t, sortedReference(runs, cmp), mergeRuns(t, runs, cmp))
}

// TestMergeRunsSkewedLengths exercises exhaustion handling: one long run
// against several short ones, so most leaves die early and the tree must
// keep draining the survivor.
func TestMergeRunsSkewedLengths(t *testing.T) {
	cmp := types.IntRawComparator{}
	rng := rand.New(rand.NewSource(7))
	long := make([]wio.Pair, 0, 512)
	seq := 0
	for i := 0; i < 512; i++ {
		long = append(long, wio.Pair{
			Key:   types.NewInt(int32(rng.Intn(8))),
			Value: types.NewLong(int64(seq)),
		})
		seq++
	}
	engine.SortPairs(long, wio.NaturalOrder{})
	runs := [][]wio.Pair{long}
	for i := 0; i < 4; i++ {
		runs = append(runs, []wio.Pair{{
			Key:   types.NewInt(int32(i * 2)),
			Value: types.NewLong(int64(seq)),
		}})
		seq++
	}
	requireIdentical(t, sortedReference(runs, cmp), mergeRuns(t, runs, cmp))
}

// BenchmarkSortVsMerge compares the old reduce-side path (concatenate all
// runs, stable-sort the partition) against the run-based path (k-way
// loser-tree merge of map-side-sorted runs) on identical input.
func BenchmarkSortVsMerge(b *testing.B) {
	const runCount, runLen = 16, 4096
	cmp := types.IntRawComparator{}
	rng := rand.New(rand.NewSource(1))
	runs := make([][]wio.Pair, runCount)
	for i := range runs {
		run := make([]wio.Pair, 0, runLen)
		for j := 0; j < runLen; j++ {
			run = append(run, wio.Pair{
				Key:   types.NewInt(rng.Int31()),
				Value: types.NewLong(int64(i*runLen + j)),
			})
		}
		engine.SortPairs(run, cmp)
		runs[i] = run
	}

	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			all := make([]wio.Pair, 0, runCount*runLen)
			for _, r := range runs {
				all = append(all, r...)
			}
			engine.SortPairs(all, cmp)
		}
	})
	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Streamed, as into a reducer: no merged copy is built.
			it := openMerge(b, runs, cmp)
			n := 0
			for {
				_, ok, err := it.Next()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
			it.Close()
			if n != runCount*runLen {
				b.Fatalf("merged %d pairs, want %d", n, runCount*runLen)
			}
		}
	})
}

// decodedRun is the reference leaf the raw merge is held against: a
// serialized run read as pairs, every record decoded into a fresh
// IntWritable key and LongWritable value as it is pulled. (It is what the
// engines ran before RawMerge; the benchmark keeps it as its baseline row.)
type decodedRun struct {
	src engine.RecSource
	dec *spill.PairDecoder
}

func newDecodedRun(t testing.TB, src engine.RecSource, keyClass, valClass string) engine.RunReader {
	t.Helper()
	dec, err := spill.NewPairDecoder(keyClass, valClass, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	return &decodedRun{src: src, dec: dec}
}

func (r *decodedRun) Next() (wio.Pair, bool, error) {
	rec, ok, err := r.src.Next()
	if err != nil || !ok {
		return wio.Pair{}, false, err
	}
	p, err := r.dec.Decode(rec)
	return p, err == nil, err
}

func (r *decodedRun) Close() error { return r.src.Close() }

// writeSpill writes recs to path as a codec-none spill file and returns its
// length.
func writeSpill(t testing.TB, path string, recs []spill.Rec) int64 {
	t.Helper()
	enc, err := spill.EncodeRun(recs, spill.CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	n, err := spill.WriteEncodedFile(path, enc)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// spillRun serializes one run into the shared spill format on disk and
// returns a stream-backed merge leaf for it.
func spillRun(t *testing.T, dir string, i int, run []wio.Pair) engine.RunReader {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("run_%d", i))
	n := writeSpill(t, path, runRecs(t, run))
	s, err := spill.OpenSegment(path, spill.Segment{Off: 0, Len: n})
	if err != nil {
		t.Fatal(err)
	}
	return newDecodedRun(t, s, types.IntName, types.LongName)
}

// drainIter collects a MergeIter into a slice.
func drainIter(t *testing.T, it engine.PairIter) []wio.Pair {
	t.Helper()
	var out []wio.Pair
	for {
		p, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

// TestMergeIterMixedRuns is the property test for the unified merger: over
// random shapes, with a random subset of runs living on disk in the spill
// record format and the rest in memory, the merged stream must be
// byte-identical to concatenating all runs in order and stable-sorting —
// the same contract TestMergeRunsMatchesSort pins for the all-resident case.
func TestMergeIterMixedRuns(t *testing.T) {
	cmp := types.IntRawComparator{}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		k := 1 + rng.Intn(9)
		keySpace := 1 + rng.Intn(12)
		t.Run(fmt.Sprintf("seed%d_k%d_keys%d", seed, k, keySpace), func(t *testing.T) {
			runs := makeRuns(rng, k, 64, keySpace)
			want := sortedReference(runs, cmp)
			dir := t.TempDir()
			readers := make([]engine.RunReader, len(runs))
			spilled := 0
			for i, run := range runs {
				if rng.Intn(2) == 0 {
					readers[i] = spillRun(t, dir, i, run)
					spilled++
				} else {
					readers[i] = engine.NewSliceRunReader(run)
				}
			}
			if spilled == 0 && k > 1 {
				readers[0] = spillRun(t, dir, 0, runs[0])
			}
			it, err := engine.NewMergeIter(readers, cmp)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			requireIdentical(t, want, drainIter(t, it))
		})
	}
}

// TestMergeIterAllSpilledStability pins the pure-stability case across
// stream-backed leaves: every key equal, so the output must be exactly the
// runs concatenated in reader order even though every run decodes from
// disk.
func TestMergeIterAllSpilledStability(t *testing.T) {
	dir := t.TempDir()
	var readers []engine.RunReader
	seq := 0
	for i := 0; i < 5; i++ {
		var run []wio.Pair
		for j := 0; j <= i; j++ {
			run = append(run, wio.Pair{
				Key:   types.NewInt(7),
				Value: types.NewLong(int64(seq)),
			})
			seq++
		}
		readers = append(readers, spillRun(t, dir, i, run))
	}
	it, err := engine.NewMergeIter(readers, types.IntRawComparator{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := drainIter(t, it)
	if len(got) != seq {
		t.Fatalf("want %d pairs, got %d", seq, len(got))
	}
	for i, p := range got {
		if v := p.Value.(*types.LongWritable).Get(); v != int64(i) {
			t.Fatalf("stability broken at %d: got value %d", i, v)
		}
	}
}

// TestMergeIterTruncatedSpillSurfaces verifies a truncated spilled run
// fails the merge loudly instead of silently shortening the partition.
func TestMergeIterTruncatedSpillSurfaces(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	runs := makeRuns(rng, 3, 32, 4)
	for len(runs[1]) == 0 {
		runs = makeRuns(rng, 3, 32, 4)
	}
	path := filepath.Join(t.TempDir(), "trunc")
	n := writeSpill(t, path, runRecs(t, runs[1]))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := spill.OpenSegment(path, spill.Segment{Off: 0, Len: n})
	if err != nil {
		t.Fatal(err)
	}
	readers := []engine.RunReader{
		engine.NewSliceRunReader(runs[0]),
		newDecodedRun(t, s, types.IntName, types.LongName),
		engine.NewSliceRunReader(runs[2]),
	}
	it, err := engine.NewMergeIter(readers, types.IntRawComparator{})
	if err == nil {
		defer it.Close()
		for {
			_, ok, nerr := it.Next()
			if nerr != nil {
				err = nerr
				break
			}
			if !ok {
				t.Fatal("truncated spill merged to a silent end-of-stream")
			}
		}
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
}

// keyed is a merge element whose key says nothing about where it came from:
// seq does, and makes a stability violation visible.
type keyed struct{ key, seq int }

type keyedRun struct{ items []keyed }

func (r *keyedRun) Next() (keyed, bool, error) {
	if len(r.items) == 0 {
		return keyed{}, false, nil
	}
	v := r.items[0]
	r.items = r.items[1:]
	return v, true, nil
}

func (r *keyedRun) Close() error { return nil }

// TestTournamentEqualHeads holds the equal-head rule (Replace keeps the
// champion when a source's new head compares equal to the one it replaces)
// to the merge's contract — the stream is the runs concatenated and
// stable-sorted — on the run shapes where the rule decides nearly every
// record: runs that are all one key, runs that alternate two keys between
// them, and keys that tie across every source. On the first shape it also
// counts comparisons: one a record, where replaying the path costs log2 k.
func TestTournamentEqualHeads(t *testing.T) {
	const k, perRun = 8, 50
	shapes := map[string]func(run, i int) int{
		"all-one-key":      func(_, _ int) int { return 7 },
		"two-keys-by-run":  func(run, _ int) int { return run % 2 },
		"two-keys-per-run": func(_, i int) int { return i * 2 / perRun },
		"ties-across-runs": func(_, i int) int { return i / 5 },
		"ties-and-gaps":    func(run, i int) int { return i / 3 * (1 + run%3) },
	}
	for name, keyOf := range shapes {
		t.Run(name, func(t *testing.T) {
			var want []keyed
			srcs := make([]engine.Source[keyed], k)
			for run := range srcs {
				items := make([]keyed, perRun)
				for i := range items {
					items[i] = keyed{key: keyOf(run, i), seq: run*perRun + i}
				}
				want = append(want, items...)
				srcs[run] = &keyedRun{items}
			}
			slices.SortStableFunc(want, func(a, b keyed) int { return a.key - b.key })
			calls := 0
			m, err := engine.NewSourceMerge(srcs, func(a, b *keyed) int { calls++; return a.key - b.key })
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			for i, w := range want {
				got, ok, err := m.Next()
				if err != nil || !ok || got != w {
					t.Fatalf("element %d is %v (ok %v, err %v), the stable sort has %v", i, got, ok, err, w)
				}
			}
			if _, ok, _ := m.Next(); ok {
				t.Fatal("the merge yields more than it was given")
			}
			// Building the tree and retiring each run replay a path; every
			// other record of a one-key merge is settled by the one
			// comparison with the head it replaces.
			if limit := k*perRun + 8*k; name == "all-one-key" && calls > limit {
				t.Errorf("%d comparisons for %d equal records over %d runs, want at most %d", calls, k*perRun, k, limit)
			}
		})
	}
}
