package integration_test

import (
	"math"
	"testing"

	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/lab"
	"m3r/internal/matrix"
	"m3r/internal/sim"
)

// matvecConfig is a small but multi-place configuration: 6 block rows over
// 3 places, so partition stability is observable.
func matvecConfig(dir string) matrix.Config {
	return matrix.Config{
		RowBlocks:  6,
		ColBlocks:  6,
		BlockSize:  20,
		Sparsity:   0.05,
		Partitions: 6,
		Dir:        dir,
		Seed:       1234,
	}
}

func vectorsClose(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("%s: element %d: got %g want %g", label, i, got[i], want[i])
		}
	}
}

// TestMatVecBothEngines runs three iterations of the paper's §6.2 workload
// on both engines and against the dense reference.
func TestMatVecBothEngines(t *testing.T) {
	const iters = 3
	c := newCluster(t, lab.Options{Nodes: 3})
	want := matrix.ReferenceMultiply(matvecConfig("/mv"), iters)

	// Hadoop engine.
	hcfg := matvecConfig("/mvh")
	if err := matrix.Generate(c.FS, hcfg); err != nil {
		t.Fatalf("generate: %v", err)
	}
	outPath, _, err := matrix.RunIterations(c.Hadoop, hcfg, iters)
	if err != nil {
		t.Fatalf("hadoop iterations: %v", err)
	}
	got, err := matrix.ReadVector(c.FS, hcfg, outPath)
	if err != nil {
		t.Fatalf("read result: %v", err)
	}
	vectorsClose(t, got, want, "hadoop")

	// M3R engine.
	mcfg := matvecConfig("/mvm")
	if err := matrix.Generate(c.FS, mcfg); err != nil {
		t.Fatalf("generate: %v", err)
	}
	outPath, _, err = matrix.RunIterations(c.M3R, mcfg, iters)
	if err != nil {
		t.Fatalf("m3r iterations: %v", err)
	}
	got, err = matrix.ReadVector(c.FS, mcfg, outPath)
	if err != nil {
		t.Fatalf("read result: %v", err)
	}
	vectorsClose(t, got, want, "m3r")
}

// TestMatVecPartitionStability asserts the paper's core §3.2.2.2 claim
// mechanically: with row-partitioned placed inputs, the sum job (job 2 of
// each iteration) shuffles ZERO bytes remotely on M3R — "the shuffle phase
// of the second job in each iteration can be done without any
// communication".
func TestMatVecPartitionStability(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 3})
	cfg := matvecConfig("/mv")
	if err := matrix.Generate(c.FS, cfg); err != nil {
		t.Fatalf("generate: %v", err)
	}

	jobs := matrix.IterationJobs(cfg, cfg.VPath(), cfg.Dir+"/temp_V_1", 0)

	// Job 1 (multiply): V blocks are broadcast to all places; remote
	// traffic is inherent. Record the baseline.
	before := c.Stats.Snapshot()
	if _, err := c.M3R.Submit(jobs[0]); err != nil {
		t.Fatalf("multiply: %v", err)
	}
	afterJob1 := c.Stats.Snapshot()
	d1 := sim.Delta(before, afterJob1)
	if d1[sim.RemoteBytes] == 0 {
		t.Error("multiply job should broadcast V blocks remotely")
	}

	// Job 2 (sum): all partial products of a block row are already at the
	// row's place; the shuffle must be entirely local.
	if _, err := c.M3R.Submit(jobs[1]); err != nil {
		t.Fatalf("sum: %v", err)
	}
	d2 := sim.Delta(afterJob1, c.Stats.Snapshot())
	if d2[sim.RemoteBytes] != 0 {
		t.Errorf("sum job shuffled %d bytes remotely; partition stability should make it 0", d2[sim.RemoteBytes])
	}
	if d2[sim.LocalPairs] == 0 {
		t.Error("sum job should have local shuffle traffic")
	}
}

// TestMatVecCacheAcrossIterations: after iteration 1 loads G into the
// cache, iteration 2's multiply job must take all its G splits as cache
// hits and re-read nothing from the filesystem.
func TestMatVecCacheAcrossIterations(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	cfg := matvecConfig("/mv")
	cfg.Partitions = 4
	if err := matrix.Generate(c.FS, cfg); err != nil {
		t.Fatalf("generate: %v", err)
	}

	it0 := matrix.IterationJobs(cfg, cfg.VPath(), cfg.Dir+"/temp_V_1", 0)
	for _, j := range it0 {
		if _, err := c.M3R.Submit(j); err != nil {
			t.Fatalf("iteration 0: %v", err)
		}
	}
	before := c.Stats.Snapshot()
	it1 := matrix.IterationJobs(cfg, cfg.Dir+"/temp_V_1", cfg.Dir+"/temp_V_2", 1)
	if _, err := c.M3R.Submit(it1[0]); err != nil {
		t.Fatalf("iteration 1 multiply: %v", err)
	}
	d := sim.Delta(before, c.Stats.Snapshot())
	if d[sim.CacheMisses] != 0 {
		t.Errorf("iteration 2 multiply had %d cache misses; G and V should be fully cached", d[sim.CacheMisses])
	}
	if d[sim.CacheHits] == 0 {
		t.Error("iteration 2 multiply had no cache hits")
	}
	if d[sim.HDFSReadBytes] != 0 {
		t.Errorf("iteration 2 multiply read %d bytes from HDFS; expected 0", d[sim.HDFSReadBytes])
	}
}

// TestMatVecTempOutputsElided: intermediate outputs carrying the temp
// naming convention never reach the backing filesystem (§4.2.3).
func TestMatVecTempOutputsElided(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	cfg := matvecConfig("/mv")
	cfg.Partitions = 4
	if err := matrix.Generate(c.FS, cfg); err != nil {
		t.Fatalf("generate: %v", err)
	}
	jobs := matrix.IterationJobs(cfg, cfg.VPath(), cfg.Dir+"/temp_V_1", 0)
	for _, j := range jobs {
		if _, err := c.M3R.Submit(j); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	// Neither the partial products nor the temp vector may exist on the
	// backing HDFS, but both must be visible through the caching fs.
	if c.FS.Exists("/mv/temp_partials_0") {
		t.Error("temporary partials were written to HDFS")
	}
	if c.FS.Exists("/mv/temp_V_1") {
		t.Error("temporary vector was written to HDFS")
	}
	cfs := c.M3R.CachingFS()
	if !cfs.Exists("/mv/temp_V_1") {
		t.Error("temp vector not visible through the caching filesystem")
	}
	// And the cached result must be numerically right.
	pairs, ok, err := cfs.Cache().PathPairs("/mv/temp_V_1/part-00001")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("temp vector partition not in cache")
	}
	if len(pairs) == 0 {
		t.Fatal("cached partition empty")
	}
}

// TestTempOutputTrailingSlash: an output path given with a trailing slash
// is the same temporary output as without it (§4.2.3): its job puts no
// bytes on the backing filesystem, counts TEMP_OUTPUTS_ELIDED, and the next
// job reads it from the cache.
func TestTempOutputTrailingSlash(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	cfg := matvecConfig("/mv")
	cfg.Partitions = 4
	if err := matrix.Generate(c.FS, cfg); err != nil {
		t.Fatalf("generate: %v", err)
	}
	before := c.Stats.Snapshot()
	it0 := matrix.IterationJobs(cfg, cfg.VPath(), cfg.Dir+"/temp_V_1/", 0)
	var rep *engine.Report
	for _, j := range it0 {
		var err error
		if rep, err = c.M3R.Submit(j); err != nil {
			t.Fatalf("iteration 0: %v", err)
		}
	}
	if n := rep.Counters.Value(counters.M3RGroup, counters.TempOutputsElided); n == 0 {
		t.Error("the job writing /mv/temp_V_1/ elided no temporary output")
	}
	if w := sim.Delta(before, c.Stats.Snapshot())[sim.HDFSWriteBytes]; w != 0 {
		t.Errorf("iteration 0 wrote %d bytes to HDFS; its outputs are temporary", w)
	}
	if c.FS.Exists("/mv/temp_V_1") {
		t.Error("the temporary vector was written to HDFS")
	}

	before = c.Stats.Snapshot()
	it1 := matrix.IterationJobs(cfg, cfg.Dir+"/temp_V_1", cfg.Dir+"/temp_V_2", 1)
	if _, err := c.M3R.Submit(it1[0]); err != nil {
		t.Fatalf("iteration 1 multiply: %v", err)
	}
	d := sim.Delta(before, c.Stats.Snapshot())
	if d[sim.CacheMisses] != 0 || d[sim.HDFSReadBytes] != 0 {
		t.Errorf("iteration 1 multiply: %d cache misses, %d bytes read from HDFS; want the vector from the cache", d[sim.CacheMisses], d[sim.HDFSReadBytes])
	}
}
