package integration_test

import (
	"math"
	"testing"

	"m3r/internal/counters"
	"m3r/internal/sysml"
	"m3r/internal/wordcount"
)

// denseBits flattens a dense matrix to the exact bit patterns of its
// cells — the byte-identity oracle for matrix output. (Raw part-file bytes
// cannot be compared across runs: every sequence file embeds a random sync
// marker.)
func denseBits(t *testing.T, d *sysml.Driver, m sysml.Mat) []uint64 {
	t.Helper()
	rows, err := d.ReadDense(m)
	if err != nil {
		t.Fatalf("read %s: %v", m.Path, err)
	}
	var bits []uint64
	for _, row := range rows {
		for _, v := range row {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// TestPageRankTightCacheBudgetEquivalence is the tentpole acceptance run:
// an iterative multi-job PageRank (3 iterations × 3 jobs = 9 jobs) under a
// cache budget far below the working set must produce byte-identical
// output to the unbounded-cache run, the tiering must actually engage
// (entries spill and readmit), and the cache ledger must stay exact —
// pool reservations equal to resident bytes, with nothing leaked.
func TestPageRankTightCacheBudgetEquivalence(t *testing.T) {
	cfg := sysml.PageRankConfig{
		Nodes: 120, BlockSize: 30, Sparsity: 0.1, Iterations: 3, Seed: 23,
	}
	run := func(t *testing.T, c *cluster) ([]uint64, *sysml.Driver) {
		t.Helper()
		d := newDriver(t, c.m3r, "/pr", 3)
		out, err := sysml.PageRank(d, cfg)
		if err != nil {
			t.Fatalf("pagerank: %v", err)
		}
		if d.JobCount() < 5 {
			t.Fatalf("want an iterative sequence of >= 5 jobs, ran %d", d.JobCount())
		}
		return denseBits(t, d, out), d
	}

	// Both runs without an engine pool, whatever the carrier says: a shuffle
	// pool would share the places' bytes with the cache budget under test.
	base := newClusterPool(t, 3, -1) // unbounded cache
	baseBits, _ := run(t, base)
	if n := base.m3r.CacheSpilledEntries(); n != 0 {
		t.Fatalf("unbounded cache must not spill, spilled %d entries", n)
	}

	// 6 KiB per place. G is 10 % dense, so WriteMat stores it sparse: 16
	// blocks of ~0.85 KiB in three splits of 5–6 blocks (~4.3–5.1 KiB). A
	// place's G split fits, but not beside the vector blocks (~0.25 KiB
	// each) and the partial products of the same iteration — so the tiering
	// must both spill under pressure and readmit into the space the post-job
	// temp drops free.
	tight := newClusterCfg(t, 3, clusterConfig{poolBytes: -1, cacheBudget: 6 << 10})
	tightBits, td := run(t, tight)

	if len(tightBits) != len(baseBits) {
		t.Fatalf("budgeted run diverged: %d cells vs %d", len(tightBits), len(baseBits))
	}
	for i := range baseBits {
		if tightBits[i] != baseBits[i] {
			t.Fatalf("budgeted run diverged from unbounded run at cell %d: %#x vs %#x",
				i, tightBits[i], baseBits[i])
		}
	}
	t.Logf("6 KiB cache budget: %d entries spilled, %d readmitted",
		tight.m3r.CacheSpilledEntries(), tight.m3r.CacheReadmittedEntries())
	if n := tight.m3r.CacheSpilledEntries(); n == 0 {
		t.Error("6 KiB budget below the working set, but no entries spilled")
	}
	if n := tight.m3r.CacheReadmittedEntries(); n == 0 {
		t.Error("temp drops free budget between iterations, but no entries readmitted")
	}
	if held, res := tight.m3r.CachePoolHeldBytes(), tight.m3r.CacheResidentBytes(); held != res {
		t.Errorf("cache ledger leak: pool holds %d bytes, %d resident", held, res)
	}

	// The tiering is observable per job: summed over the sequence's
	// reports, the spill/readmit deltas reproduce the engine totals, and
	// the last report carries the resident gauge.
	var spilled, readmitted int64
	for _, rep := range td.Reports {
		spilled += rep.Counters.Value(counters.M3RGroup, counters.CacheSpilledEntries)
		readmitted += rep.Counters.Value(counters.M3RGroup, counters.CacheReadmittedEntries)
	}
	if spilled != tight.m3r.CacheSpilledEntries() {
		t.Errorf("per-job CACHE_SPILLED_ENTRIES sum to %d, engine total %d",
			spilled, tight.m3r.CacheSpilledEntries())
	}
	if readmitted != tight.m3r.CacheReadmittedEntries() {
		t.Errorf("per-job CACHE_READMITTED_ENTRIES sum to %d, engine total %d",
			readmitted, tight.m3r.CacheReadmittedEntries())
	}
	// The gauge is a job-end snapshot: the driver drops temp outputs after
	// each job returns, so it need not equal the engine's current value —
	// but at the end of the final job the output matrix is resident.
	last := td.Reports[len(td.Reports)-1]
	if got := last.Counters.Value(counters.M3RGroup, counters.CacheResidentBytes); got <= 0 {
		t.Errorf("CACHE_RESIDENT_BYTES gauge on the final job: %d, want > 0", got)
	}
}

// TestFailedJobDrainsCacheReservations pins the failure half of the
// accounting acceptance: a job that dies mid-reduce must not bleed cache
// budget — its output entries are dropped, so the cache tag's reservations
// return exactly to their pre-job level, and a rerun without the fault is
// byte-identical to a run on a cluster that never saw the failure.
func TestFailedJobDrainsCacheReservations(t *testing.T) {
	// No engine pool, whatever the carrier says: the cache's own 1 MiB
	// budget is the ledger under test.
	c := newClusterCfg(t, 2, clusterConfig{poolBytes: -1, cacheBudget: 1 << 20})
	if err := wordcount.Generate(c.fs, "/data/cachefail", 32<<10, 9); err != nil {
		t.Fatal(err)
	}

	// Job 1 (success) caches the input's split entries and its output.
	if _, err := c.m3r.Submit(wordcount.NewJob("/data/cachefail", "/out/wc1", 2, false)); err != nil {
		t.Fatalf("seed job: %v", err)
	}
	held0, res0 := c.m3r.CachePoolHeldBytes(), c.m3r.CacheResidentBytes()
	if held0 == 0 || held0 != res0 {
		t.Fatalf("seed job should leave a clean resident cache: held=%d resident=%d", held0, res0)
	}

	// Job 2 fails in reduce. Its input splits are already cached (no new
	// reservations) and its output entries must be dropped on failure, so
	// the ledger returns exactly to the seed level.
	fail := wordcount.NewJob("/data/cachefail", "/out/wcfail", 2, false)
	fail.SetReducerClass("test.FailingReducer")
	if _, err := c.m3r.Submit(fail); err == nil {
		t.Fatal("job with failing reducer should fail")
	}
	if held, res := c.m3r.CachePoolHeldBytes(), c.m3r.CacheResidentBytes(); held != held0 || res != res0 {
		t.Fatalf("failed job leaked cache budget: held %d->%d resident %d->%d",
			held0, held, res0, res)
	}

	// Job 3 reruns the failed job without the fault: served partly from the
	// cache the failure left behind, byte-identical to a failure-free
	// cluster.
	if _, err := c.m3r.Submit(wordcount.NewJob("/data/cachefail", "/out/wc3", 2, false)); err != nil {
		t.Fatalf("rerun: %v", err)
	}

	clean := newClusterCfg(t, 2, clusterConfig{poolBytes: -1, cacheBudget: 1 << 20})
	if err := wordcount.Generate(clean.fs, "/data/cachefail", 32<<10, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.m3r.Submit(wordcount.NewJob("/data/cachefail", "/out/wc3", 2, false)); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	requireSameLines(t, "post-failure rerun vs clean cluster",
		readTextOutput(t, clean.fs, "/out/wc3"), readTextOutput(t, c.fs, "/out/wc3"))
}
