package m3r

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/matrix"
	"m3r/internal/sim"
	"m3r/internal/sysml"
	"m3r/internal/testenv"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// What a job pays before and around its records: the plan per split and a
// task's envelope and scaffolding. The ceilings below were set with go1.24
// on amd64 when the plan and the task envelope stopped allocating per split
// and per task (386 is not pinned: a word is half as wide there, and a few
// slices round differently). Each is the measured value — the same in 20
// runs at each of GOMAXPROCS 1, 2 and 4 — plus the benchmark's 3 %
// allocation bound, rounded down to whole allocations. They skip under the
// race detector, which drops a share of what sync.Pool is given.

// scaffoldEngine is a four-place M3R engine with every knob the counts
// depend on set explicitly, so no M3R_CONF_DEFAULTS carrier moves them:
// no engine pool, no cache budget, the modelled costs zero.
func scaffoldEngine(tb testing.TB) (*Engine, dfs.FileSystem) {
	tb.Helper()
	backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: tb.TempDir(), Hosts: []string{"n0", "n1", "n2", "n3"}})
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(Options{Backing: backing, Places: 4, WorkersPerPlace: 1, ShuffleBudgetBytes: -1, CacheBudgetBytes: -1, Cost: sim.Zero(), Stats: sim.NewStats()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	return e, backing
}

// oneRecordFiles writes n SequenceFiles of one (Text, Int) record each
// under dir: n splits.
func oneRecordFiles(tb testing.TB, fs dfs.FileSystem, dir string, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		pairs := []wio.Pair{{Key: types.NewText(fmt.Sprintf("k%04d", i)), Value: types.NewInt(int32(i))}}
		if err := formats.WriteSeqFile(fs, fmt.Sprintf("%s/part-%05d", dir, i), types.TextName, types.IntName, pairs); err != nil {
			tb.Fatal(err)
		}
	}
}

// scaffoldJob is an identity job over the SequenceFiles under in, with
// reducers reduce tasks (0: map-only), its knobs explicit.
func scaffoldJob(in, out string, reducers int) *conf.JobConf {
	job := conf.NewJob()
	job.SetJobName("scaffold")
	job.SetInputFormatClass(formats.SequenceFileInputFormatName)
	job.SetOutputFormatClass(formats.SequenceFileOutputFormatName)
	job.AddInputPath(in)
	job.SetOutputPath(out)
	job.SetNumReduceTasks(reducers)
	job.SetMapOutputKeyClass(types.TextName)
	job.SetMapOutputValueClass(types.IntName)
	job.SetOutputKeyClass(types.TextName)
	job.SetOutputValueClass(types.IntName)
	job.SetInt64(conf.KeyM3RShuffleBudget, 0)
	job.Set(conf.KeyM3RSpillCodec, "none")
	job.SetBool(conf.KeyM3RCache, true)
	job.SetBool(conf.KeyM3RDedup, true)
	return job
}

// cachedSplitsJob returns the job of plan's fixture: n one-record files
// whose splits a first run has put in the input cache.
func cachedSplitsJob(tb testing.TB, e *Engine, fs dfs.FileSystem, n int) *conf.JobConf {
	tb.Helper()
	in := fmt.Sprintf("/plan/in%d", n)
	oneRecordFiles(tb, fs, in, n)
	if _, err := e.Submit(scaffoldJob(in, in+"_warm", 0)); err != nil {
		tb.Fatal(err)
	}
	return scaffoldJob(in, in+"_out", 4)
}

// openExec admits job as Submit does, up to its plan; the test's cleanup
// ends the admission.
func openExec(tb testing.TB, e *Engine, job *conf.JobConf) *jobExec {
	tb.Helper()
	x, end := admit(tb, e, job)
	tb.Cleanup(end)
	return x
}

// layOutMapTasks lays x out for n map tasks as plan does — their attempts,
// their collectors' rows and the output tasks' sinks — and returns the
// tasks, each at place 0. A test that drives collectors without a plan
// takes its tasks from here.
func layOutMapTasks(x *jobExec, n int) []mapAssignment {
	R := x.Resolved.NumReducers
	x.LayOutTasks(n, R)
	x.maps = make([]mapAssignment, n)
	for i := range x.maps {
		x.maps[i].x, x.maps[i].index = x, i
	}
	x.layOutCollectors(n, R, x.e.rt.NumPlaces())
	if x.Resolved.MapOnly {
		x.layOutSinks(n)
	} else {
		x.layOutSinks(R)
	}
	return x.maps
}

// admit admits job as Submit does, up to its plan, and returns what ends the
// admission.
func admit(tb testing.TB, e *Engine, job *conf.JobConf) (*jobExec, func()) {
	tb.Helper()
	j, err := e.host.Open(job, nil)
	if err != nil {
		tb.Fatal(err)
	}
	x, err := e.newJobExec(j)
	if err != nil {
		j.Lifecycle.Stop()
		tb.Fatal(err)
	}
	return x, func() {
		x.cleanup()
		j.Lifecycle.Stop()
	}
}

// planAllocs is the mallocs of one plan of job, the mean over reps
// admissions made beforehand.
func planAllocs(tb testing.TB, e *Engine, job *conf.JobConf, reps int) float64 {
	tb.Helper()
	xs := make([]*jobExec, reps)
	for i := range xs {
		xs[i] = openExec(tb, e, job)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, x := range xs {
		if _, err := x.plan(); err != nil {
			tb.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(reps)
}

// TestPlanAllocsPerSplit: planning a job over n cached splits allocates at
// most perSplit·n + fixed — what a split costs the plan is its store path
// and its share of the job's slices, not closures, formatted names or
// error strings.
func TestPlanAllocsPerSplit(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not stable under the race detector")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("ceilings are pinned on amd64, not %s", runtime.GOARCH)
	}
	// Measured: 1.083 a split, 26.7 fixed (44 allocs at 16 splits, 96 at 64;
	// 2.125 and 27 before a job cut its splits' paths from one chunk).
	const perSplit, fixed = 1.11, 27
	e, fs := scaffoldEngine(t)
	small, large := 16, 64
	a1 := planAllocs(t, e, cachedSplitsJob(t, e, fs, small), 5)
	a2 := planAllocs(t, e, cachedSplitsJob(t, e, fs, large), 5)
	slope := (a2 - a1) / float64(large-small)
	t.Logf("plan: %d splits %.1f allocs, %d splits %.1f allocs: %.2f a split, %.1f fixed", small, a1, large, a2, slope, a1-slope*float64(small))
	for _, m := range []struct {
		n      int
		allocs float64
	}{{small, a1}, {large, a2}} {
		if ceiling := perSplit*float64(m.n) + fixed; m.allocs > ceiling {
			t.Errorf("plan over %d cached splits: %.1f allocs, ceiling %.1f·n + %.0f = %.1f", m.n, m.allocs, float64(perSplit), float64(fixed), ceiling)
		}
	}
}

// TestEmptyMapTaskAllocs: a map task whose split holds no record — a
// cache hit on an empty block — costs at most a fixed number of
// allocations, the whole attempt included: envelope, context and conf,
// mapper, collector or output sink, and their commit. The plan's task 0
// runs over and over, so after the first run each allocates its attempt,
// as a retry does; its collector state and sink are the job's rows.
func TestEmptyMapTaskAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not stable under the race detector")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("ceilings are pinned on amd64, not %s", runtime.GOARCH)
	}
	e, fs := scaffoldEngine(t)
	oneRecordFiles(t, fs, "/empty/in", 1)
	const name = "/empty/split:0+0"
	if err := e.cache.putSplit(0, splitPath(name), nil); err != nil {
		t.Fatal(err)
	}
	cached, ok := e.cache.lookupSplit(nil, splitPath(name), nil)
	if !ok {
		t.Fatal("the empty split is not cached")
	}
	for _, tc := range []struct {
		name     string
		reducers int
		ceiling  float64
	}{
		{"shuffle", 4, 1},  // measured 1 (3 before the task took its collector rows from the plan, 4 before attempt ids came from the job's chunk)
		{"map-only", 0, 2}, // measured 2 (4 before the task took its sink from the plan, 5 before that)
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A temporary output (§4.2.3): each run replaces the one cache
			// entry, and no file is committed twice.
			x := openExec(t, e, scaffoldJob("/empty/in", "/empty/temp_"+tc.name, tc.reducers))
			if _, err := x.plan(); err != nil {
				t.Fatal(err)
			}
			a := &x.maps[0]
			a.place, a.cached, a.hit = 0, cached, true
			allocs := testing.AllocsPerRun(50, func() {
				if err := a.Run(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s map task over an empty split: %.0f allocs", tc.name, allocs)
			if allocs > tc.ceiling {
				t.Errorf("%s map task over an empty split: %.0f allocs, ceiling %.0f", tc.name, allocs, tc.ceiling)
			}
		})
	}
}

// BenchmarkPlan is the plan of a job over N cached one-record splits.
func BenchmarkPlan(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			e, fs := scaffoldEngine(b)
			job := cachedSplitsJob(b, e, fs, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				x, end := admit(b, e, job)
				b.StartTimer()
				if _, err := x.plan(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				end()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkSmallJob is one map-only M3R job over 8 one-record splits,
// cached by a first run, into a temporary output (§4.2.3, no file written):
// what an intermediate job of a SystemML-style sequence pays for its
// set-up, its tasks and its commit when its records cost nothing.
func BenchmarkSmallJob(b *testing.B) {
	e, fs := scaffoldEngine(b)
	oneRecordFiles(b, fs, "/small/in", 8)
	if _, err := e.Submit(scaffoldJob("/small/in", "/small/warm", 0)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := fmt.Sprintf("/small/temp_%d", i)
		if _, err := e.Submit(scaffoldJob("/small/in", out, 0)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := e.cfs.Delete(out, true); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// namedSplit is a user split that names its own cache entry (§4.2.1).
type namedSplit struct{ name string }

func (namedSplit) Length() int64       { return 1 }
func (namedSplit) Locations() []string { return nil }
func (s namedSplit) GetName() string   { return s.name }

// TestSplitKeyIsSplitPathOfSplitName: the store path the plan builds
// straight from a split is the one its name maps to, for every split the
// naming rules name; a split they do not name bypasses the cache.
func TestSplitKeyIsSplitPathOfSplitName(t *testing.T) {
	e, _ := scaffoldEngine(t)
	file := &formats.FileSplit{Path: "/data/f", Start: 1 << 20, Len: 4096}
	for _, s := range []formats.InputSplit{
		file,
		&formats.FileSplit{Path: "/data//odd:name/", Start: 0, Len: 0},
		&formats.TaggedInputSplit{Base: file, MapperName: "m"},
		&formats.TaggedInputSplit{Base: &formats.TaggedInputSplit{Base: file}},
		namedSplit{"job/dir:7"},
	} {
		name, ok := formats.SplitName(s)
		sp, _, kok := splitKey(e.cfs, s, new(engine.Strings))
		if !ok || !kok || sp != splitPath(name) {
			t.Errorf("%v: splitKey %q (%v), splitPath(SplitName) %q (%v)", s, sp, kok, splitPath(name), ok)
		}
	}
	if _, _, ok := splitKey(e.cfs, &formats.TaggedInputSplit{Base: unnamedSplit{}}, new(engine.Strings)); ok {
		t.Error("a split no rule names has a store path")
	}
}

type unnamedSplit struct{}

func (unnamedSplit) Length() int64       { return 0 }
func (unnamedSplit) Locations() []string { return nil }

// TestCachingRenameSource: a rename through the caching filesystem moves
// its source wherever it is — in the cache only, on the backing store only,
// or in both — and, as dfs.HDFS does, fails with dfs.ErrNotFound and makes
// nothing when the source is in neither: the cache is invisible.
func TestCachingRenameSource(t *testing.T) {
	e, backing := scaffoldEngine(t)
	pairs := []wio.Pair{{Key: types.NewText("k"), Value: types.NewInt(1)}}
	for _, tc := range []struct {
		name           string
		cache, backing bool
	}{
		{"cache only", true, false},
		{"backing only", false, true},
		{"both", true, true},
		{"neither", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := "/rename/" + strings.ReplaceAll(tc.name, " ", "_")
			src, dst := dir+"/src", dir+"/moved/dst"
			if tc.backing {
				if err := formats.WriteSeqFile(backing, src, types.TextName, types.IntName, pairs); err != nil {
					t.Fatal(err)
				}
			}
			if tc.cache {
				if err := e.cfs.CacheOutput(0, src, pairs); err != nil {
					t.Fatal(err)
				}
			}
			err := e.cfs.Rename(src, dst)
			if !tc.cache && !tc.backing {
				if !errors.Is(err, dfs.ErrNotFound) {
					t.Errorf("rename of a source in neither = %v, want dfs.ErrNotFound", err)
				}
				if e.cfs.Exists(dst) || e.cfs.Exists(dir+"/moved") {
					t.Error("a failed rename made its destination")
				}
				return
			}
			if err != nil {
				t.Fatalf("rename = %v", err)
			}
			if e.cfs.Exists(src) || !e.cfs.Exists(dst) {
				t.Errorf("after the rename: src exists %v, dst exists %v", e.cfs.Exists(src), e.cfs.Exists(dst))
			}
			if got := e.cache.store.Exists(dst); got != tc.cache {
				t.Errorf("the cache holds dst: %v, want %v", got, tc.cache)
			}
			if got := backing.Exists(dst); got != tc.backing {
				t.Errorf("the backing store holds dst: %v, want %v", got, tc.backing)
			}
		})
	}
}

// TestOneRangeReadIsAView: reading a cached split that is one whole block
// at the block's place hands out the block's own pairs — no copy, no
// Reader — so a cache hit of a map task allocates nothing to get its input.
func TestOneRangeReadIsAView(t *testing.T) {
	e, _ := scaffoldEngine(t)
	pairs := []wio.Pair{{Key: types.NewText("a"), Value: types.NewInt(1)}, {Key: types.NewText("b"), Value: types.NewInt(2)}}
	const name = "/view/split:0+2"
	if err := e.cache.putSplit(1, splitPath(name), pairs); err != nil {
		t.Fatal(err)
	}
	ranges, ok := e.cache.lookupSplit(nil, splitPath(name), nil)
	if !ok || len(ranges) != 1 {
		t.Fatalf("lookup: %d ranges, hit %v", len(ranges), ok)
	}
	got, remote, err := e.cache.ReadRanges(1, ranges)
	if err != nil || remote || len(got) != len(pairs) || got[0].Key != pairs[0].Key {
		t.Fatalf("read: %d pairs, remote %v, err %v", len(got), remote, err)
	}
	if a := testing.AllocsPerRun(100, func() { e.cache.ReadRanges(1, ranges) }); a != 0 {
		t.Errorf("a one-range read at the block's place allocates %v times, want 0", a)
	}
}

// TestPlannedTaskAllocs: a planned first attempt — a map task over a cached
// one-record split of a shuffling job, then a reduce task over what the map
// tasks shipped — costs at most a fixed number of allocations, the whole
// attempt included. Its envelope, context, conf, id, collector state and
// output sink are the job's layout, so what is left is the task's own: its
// mapper or reducer, its record's clone or decode, its merge, and its output
// file and cache entry. The ceilings are the largest mean measured in 20
// runs at each of GOMAXPROCS 1, 2 and 4 plus 3 %, as the others in this
// file are: 1.12 and 40.75 (go1.24, amd64), when a reduce task's cloning
// sink came to decode its output into one exact slab a class (46.75–47.25
// before). The count is the whole process's, so each is the fewest of
// three tries, each a fresh admission of the job to an output of its own.
func TestPlannedTaskAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not stable under the race detector")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("ceilings are pinned on amd64, not %s", runtime.GOARCH)
	}
	// Measured: 1.12 in all 60 and 46.75–47.25, once the job came to build
	// its reduce merges' comparator and cancel checks with their layout
	// (1.12 and 48.75 in all 60 before, once a map task's clone came from
	// the shared slabs and the job came to lay out its reduce merges at
	// the barrier; 3.12 and 54.75 before that; one try: 5.25 and
	// 64.25–65.00 before a job laid out its tasks' ids, sinks and small
	// runs).
	const splits, mapCeiling, reduceCeiling = 16, 1.15, 41.97
	e, fs := scaffoldEngine(t)
	job := cachedSplitsJob(t, e, fs, splits)
	// A whole run of the job first warms the pools its tasks draw on.
	warm := job.CloneJob()
	warm.SetOutputPath("/plan/warm_shuffle")
	if _, err := e.Submit(warm); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms0, ms1 runtime.MemStats
	mean := func(n int, run func(i int) error) float64 {
		runtime.ReadMemStats(&ms0)
		for i := range n {
			if err := run(i); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms1)
		return float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	}
	perMap, perReduce := math.Inf(1), math.Inf(1)
	for try := range 3 {
		tried := job.CloneJob()
		tried.SetOutputPath(fmt.Sprintf("/plan/planned_%d", try))
		x := openExec(t, e, tried)
		assignments, err := x.plan()
		if err != nil {
			t.Fatal(err)
		}
		perMap = min(perMap, mean(len(assignments), func(i int) error { return assignments[i].Run() }))
		x.layOutMerges() // the barrier's, as jobExec.run lays them out
		perReduce = min(perReduce, mean(len(x.parts), func(q int) error { return x.parts[q].Run() }))
	}
	t.Logf("a planned map task %.2f allocs, a planned reduce task %.2f allocs", perMap, perReduce)
	if perMap > mapCeiling {
		t.Errorf("a planned map task: %.2f allocs, ceiling %.2f", perMap, mapCeiling)
	}
	if perReduce > reduceCeiling {
		t.Errorf("a planned reduce task: %.2f allocs, ceiling %.2f", perReduce, reduceCeiling)
	}
}

// TestSinkCloneAllocs: a task's cloning sink (its output not ImmutableOutput)
// that collects 16 pairs of BlockKey and a 100×1 Block, reused, costs a
// constant however many blocks it clones: the copies' keys come from one
// slab at flush, their values from another and their 16 float bodies from
// a third (the run's, spill.PairDecoder.OneEntry), and the sink's run, its
// decoder and its layout come from pools. The other two allocations are
// the cache entry: its store entry and its pairs' slice. Measured 5 in all
// 20 runs at each of GOMAXPROCS 1, 2 and 4 (go1.24, amd64), the ceiling;
// 22 before a run's objects came from exact slabs and its bodies from one
// slab (slabs of 8 and a body each), and 54 before a sink serialized its
// pairs at Collect and decoded them at flush, when each pair cost a key, a
// value and a body.
func TestSinkCloneAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not stable under the race detector")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("ceilings are pinned on amd64, not %s", runtime.GOARCH)
	}
	const pairs, ceiling = 16, 5
	e, _ := scaffoldEngine(t)
	// A temporary output: the sink opens the cache entry and no file.
	x := openExec(t, e, scaffoldJob("/sink/in", "/sink/temp_out", 0))
	x.layOutSinks(1)
	ctx := engine.NewTaskContext(x.Conf, "attempt_sink", nil)
	key, value := matrix.NewBlockKey(0, 0), sysml.NewBlock(100, 1)
	allocs := testing.AllocsPerRun(50, func() {
		s, err := x.openTaskSink(ctx, 0, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		s.records = &ctx.Cells.MapOutputRecords
		for i := range pairs {
			key.Row, value.V[0] = int32(i), float64(i)
			if err := s.Collect(key, value); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.flush(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a cloning sink of %d blocks: %.0f allocs", pairs, allocs)
	if allocs > ceiling {
		t.Errorf("a cloning sink of %d blocks: %.0f allocs, ceiling %d", pairs, allocs, ceiling)
	}
}
