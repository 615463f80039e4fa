package integration_test

import (
	"errors"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/lab"
	"m3r/internal/mapred"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// TestHadoopMultiSpillMerge forces the map-side buffer to spill many times
// (io.sort.mb far below the map output size) and checks the multi-spill
// merge path produces the same answer.
func TestHadoopMultiSpillMerge(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/t", 256<<10, 3); err != nil {
		t.Fatal(err)
	}
	want, err := wordcount.CountReference(c.FS, "/data/t")
	if err != nil {
		t.Fatal(err)
	}
	job := wordcount.NewJob("/data/t", "/out/spilled", 3, false)
	// A 16 KiB buffer against ~64 KiB of map output per task: every map
	// task spills several times and must merge its spills.
	job.SetInt64("io.sort.bytes", 16<<10)
	rep, err := c.Hadoop.Submit(job)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	maps := rep.Counters.Value(counters.JobGroup, counters.TotalLaunchedMaps)
	if spills := c.Stats.Get(sim.SpillFiles); spills <= maps {
		t.Fatalf("expected more spill files (%d) than map tasks (%d)", spills, maps)
	}
	checkCounts(t, readTextOutput(t, c.FS, "/out/spilled"), want)

	// Compare against a single-spill run of the same job.
	job2 := wordcount.NewJob("/data/t", "/out/unspilled", 3, false)
	if _, err := c.Hadoop.Submit(job2); err != nil {
		t.Fatalf("submit: %v", err)
	}
	a := readTextOutput(t, c.FS, "/out/spilled")
	b := readTextOutput(t, c.FS, "/out/unspilled")
	if len(a) != len(b) {
		t.Fatalf("spilled %d lines vs unspilled %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("line %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestHadoopMultiSpillMergeCompressed reruns the multi-spill workload with
// flate spill blocks: the map-side sort spills, the spill merge, and the
// reducers' byte-range fetches all traverse compressed segments, the stored
// spill bytes must come in under the raw record bytes on wordcount's
// repetitive keys, and the output must match the raw-codec run line for
// line.
func TestHadoopMultiSpillMergeCompressed(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/tc", 256<<10, 3); err != nil {
		t.Fatal(err)
	}
	want, err := wordcount.CountReference(c.FS, "/data/tc")
	if err != nil {
		t.Fatal(err)
	}
	mkJob := func(out, codec string) *conf.JobConf {
		job := wordcount.NewJob("/data/tc", out, 3, false)
		job.SetInt64("io.sort.bytes", 16<<10)
		job.Set(conf.KeyM3RSpillCodec, codec)
		return job
	}
	if _, err := c.Hadoop.Submit(mkJob("/out/spilled_flate", "flate")); err != nil {
		t.Fatalf("flate submit: %v", err)
	}
	stored, raw := c.Stats.Get(sim.SpillBytes), c.Stats.Get(sim.SpillRawBytes)
	if raw == 0 {
		t.Fatal("multi-spill job recorded no raw spill bytes")
	}
	if stored >= raw {
		t.Fatalf("flate spills stored %d bytes >= raw %d", stored, raw)
	}
	checkCounts(t, readTextOutput(t, c.FS, "/out/spilled_flate"), want)

	if _, err := c.Hadoop.Submit(mkJob("/out/spilled_none", "none")); err != nil {
		t.Fatalf("raw submit: %v", err)
	}
	a := readTextOutput(t, c.FS, "/out/spilled_flate")
	b := readTextOutput(t, c.FS, "/out/spilled_none")
	if len(a) != len(b) {
		t.Fatalf("flate %d lines vs raw %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("line %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestM3RShuffleBudgetSpills drives the M3R engine's spill path: a shuffle
// budget far below the job's shuffle volume forces runs to disk (asserted
// via the SpilledRuns counter), and the job's output must stay
// byte-identical to the unbudgeted, fully in-memory run of the same job.
func TestM3RShuffleBudgetSpills(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/b", 128<<10, 5); err != nil {
		t.Fatal(err)
	}
	want, err := wordcount.CountReference(c.FS, "/data/b")
	if err != nil {
		t.Fatal(err)
	}

	budgeted := wordcount.NewJob("/data/b", "/out/budgeted", 3, false)
	// 4 KiB per place against tens of KiB of shuffled runs: the first run
	// or two stay resident, the rest must spill.
	budgeted.SetInt64(conf.KeyM3RShuffleBudget, 4<<10)
	rep, err := c.M3R.Submit(budgeted)
	if err != nil {
		t.Fatalf("budgeted submit: %v", err)
	}
	spilledRuns := rep.Counters.Value(counters.M3RGroup, counters.SpilledRuns)
	if spilledRuns == 0 {
		t.Fatal("tiny budget produced no spilled runs")
	}
	if rep.Counters.Value(counters.M3RGroup, counters.SpilledBytes) == 0 {
		t.Error("spilled runs but no spilled bytes counted")
	}

	unbudgeted := wordcount.NewJob("/data/b", "/out/unbudgeted", 3, false)
	// Explicit 0 (not merely unset): the control leg must stay in-memory
	// even when CI's tight-budget leg injects a budget via the environment.
	unbudgeted.SetInt64(conf.KeyM3RShuffleBudget, 0)
	rep2, err := c.M3R.Submit(unbudgeted)
	if err != nil {
		t.Fatalf("unbudgeted submit: %v", err)
	}
	if n := rep2.Counters.Value(counters.M3RGroup, counters.SpilledRuns); n != 0 {
		t.Fatalf("unbudgeted job spilled %d runs", n)
	}

	a := readTextOutput(t, c.FS, "/out/budgeted")
	b := readTextOutput(t, c.FS, "/out/unbudgeted")
	if len(a) != len(b) {
		t.Fatalf("budgeted %d lines vs unbudgeted %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("line %d differs: %q vs %q", i, a[i], b[i])
		}
	}
	checkCounts(t, a, want)
}

// TestM3RFailedJobLeavesNoScratch pins the abort path: a failing M3R job
// must clean the committer's _temporary directory off the caching
// filesystem instead of leaving it for the next job to trip over.
func TestM3RFailedJobLeavesNoScratch(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 1})
	dfs.WriteFile(c.FS, "/in/g", []byte("a line\n"))
	job := conf.NewJob()
	job.AddInputPath("/in")
	job.SetOutputPath("/out/failing")
	job.SetMapperClass("test.FlakyMapper")
	job.SetReducerClass(mapred.IdentityReducerName)
	job.SetNumReduceTasks(1)
	job.SetMapOutputKeyClass(types.LongName)
	job.SetMapOutputValueClass(types.TextName)
	job.SetOutputKeyClass(types.LongName)
	job.SetOutputValueClass(types.TextName)

	flakyRemaining.Store(1)
	if _, err := c.M3R.Submit(job); err == nil {
		t.Fatal("m3r job should have failed")
	}
	flakyRemaining.Store(-1)
	fs := c.M3R.CachingFS()
	if fs.Exists("/out/failing/_temporary") {
		t.Error("failed job left _temporary behind")
	}
	if fs.Exists("/out/failing/_SUCCESS") {
		t.Error("failed job left a _SUCCESS marker")
	}
}

// TestConfDefaultsReachBothEngines: a job-scoped knob set only in
// conf.DefaultsEnv applies to jobs of either engine that leave it unset, an
// explicit value on the job still wins, and a malformed carrier fails the
// submission instead of running unconfigured.
func TestConfDefaultsReachBothEngines(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/d", 64<<10, 3); err != nil {
		t.Fatal(err)
	}
	t.Setenv(conf.DefaultsEnv, conf.KeyM3RSpillCodec+"=flate "+conf.KeyM3RShuffleBudget+"=4096 "+conf.KeySortBytes+"=16384")
	for _, eng := range []engine.Engine{c.Hadoop, c.M3R} {
		before := c.Stats.Snapshot()
		if _, err := eng.Submit(wordcount.NewJob("/data/d", "/out/d_"+eng.Name(), 3, false)); err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		d := sim.Delta(before, c.Stats.Snapshot())
		if stored, raw := d[sim.SpillBytes], d[sim.SpillRawBytes]; raw == 0 || stored >= raw {
			t.Errorf("%s: stored %d vs raw %d spill bytes: the carrier's budget and flate codec did not apply", eng.Name(), stored, raw)
		}
		explicit := wordcount.NewJob("/data/d", "/out/d_none_"+eng.Name(), 3, false)
		explicit.Set(conf.KeyM3RSpillCodec, "none")
		before = c.Stats.Snapshot()
		if _, err := eng.Submit(explicit); err != nil {
			t.Fatalf("%s explicit: %v", eng.Name(), err)
		}
		d = sim.Delta(before, c.Stats.Snapshot())
		// Stored blocks are the raw bytes plus framing: never fewer, where
		// flate on this repetitive input always stores fewer.
		if stored, raw := d[sim.SpillBytes], d[sim.SpillRawBytes]; raw == 0 || stored < raw {
			t.Errorf("%s: explicit codec none stored %d vs raw %d", eng.Name(), stored, raw)
		}
	}
	t.Setenv(conf.DefaultsEnv, "M3R_SPILL_CODEC")
	for _, eng := range []engine.Engine{c.Hadoop, c.M3R} {
		if _, err := eng.Submit(wordcount.NewJob("/data/d", "/out/d_bad_"+eng.Name(), 3, false)); err == nil {
			t.Errorf("%s accepted a job under a malformed %s", eng.Name(), conf.DefaultsEnv)
		}
	}
}

// requireSameLines asserts two sorted output line sets are identical.
func requireSameLines(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d lines vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: line %d differs: %q vs %q", label, i, want[i], got[i])
		}
	}
}

// failingReducer fails every reduce call; it drives the abort-mid-merge
// teardown test.
type failingReducer struct{ mapred.Base }

func (*failingReducer) Reduce(_ wio.Writable, _ mapred.ValueIterator,
	_ mapred.OutputCollector, _ mapred.Reporter) error {
	return errors.New("injected reduce failure")
}

func init() {
	mapred.RegisterReducer("test.FailingReducer", func() mapred.Reducer { return &failingReducer{} })
}

// TestM3RAbortedMergeClosesSpillStreams pins the early-termination close
// path: a reducer failing mid-merge over spilled runs must not strand a
// single spilled-run file handle — every open segment is closed by the time
// the failed Submit returns.
func TestM3RAbortedMergeClosesSpillStreams(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/abort", 128<<10, 17); err != nil {
		t.Fatal(err)
	}
	base := spill.OpenStreamCount()
	job := wordcount.NewJob("/data/abort", "/out/abort", 3, false)
	job.SetInt64(conf.KeyM3RShuffleBudget, 2<<10)
	job.SetReducerClass("test.FailingReducer")
	if _, err := c.M3R.Submit(job); err == nil {
		t.Fatal("job with failing reducer should fail")
	}
	if n := spill.OpenStreamCount(); n != base {
		t.Fatalf("%d spill streams left open after aborted reduce", n-base)
	}
}
