package integration_test

import (
	"testing"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/hmrext"
	"m3r/internal/lab"
	"m3r/internal/sim"
	"m3r/internal/wordcount"
)

// submitWC generates input (once) and runs a wordcount on the M3R engine.
func submitWC(t *testing.T, c *lab.Cluster, in, out string) {
	t.Helper()
	if !c.FS.Exists(in) {
		if err := wordcount.Generate(c.FS, in, 16<<10, 77); err != nil {
			t.Fatalf("generate: %v", err)
		}
	}
	if _, err := c.M3R.Submit(wordcount.NewJob(in, out, 2, true)); err != nil {
		t.Fatalf("submit: %v", err)
	}
}

// TestCacheInvalidationOnDelete: deleting a file through the engine's
// filesystem transparently evicts it from the cache (§3.2.1), so a rerun
// re-reads from disk.
func TestCacheInvalidationOnDelete(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	submitWC(t, c, "/data/t", "/out/1")

	// Second run: input splits come from the cache.
	before := c.Stats.Snapshot()
	submitWC(t, c, "/data/t", "/out/2")
	d := sim.Delta(before, c.Stats.Snapshot())
	if d[sim.CacheMisses] != 0 {
		t.Fatalf("second run missed the cache %d times", d[sim.CacheMisses])
	}

	// Deleting the input (via the caching fs) evicts its split entries.
	cfs := c.M3R.CachingFS()
	// Re-create the data first since we are deleting the original.
	data, _ := dfs.ReadAll(c.FS, "/data/t")
	if err := cfs.Delete("/data/t", false); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := dfs.WriteFile(cfs, "/data/t", data); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	before = c.Stats.Snapshot()
	submitWC(t, c, "/data/t", "/out/3")
	d = sim.Delta(before, c.Stats.Snapshot())
	if d[sim.CacheMisses] == 0 {
		t.Error("run after delete should re-read from the filesystem")
	}
}

// TestCacheInvalidationOnRename: renames follow the data in the cache
// (§3.2.1) — the renamed path serves cache hits, the old path is gone.
func TestCacheInvalidationOnRename(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	submitWC(t, c, "/data/t", "/out/1")
	cfs := c.M3R.CachingFS()
	if err := cfs.Rename("/data/t", "/data/moved"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	before := c.Stats.Snapshot()
	if _, err := c.M3R.Submit(wordcount.NewJob("/data/moved", "/out/2", 2, true)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	d := sim.Delta(before, c.Stats.Snapshot())
	if d[sim.CacheMisses] != 0 {
		t.Errorf("renamed input missed the cache %d times; split entries should have moved", d[sim.CacheMisses])
	}
}

// TestGetRawCache: operations on the synthetic cache-only filesystem evict
// cached data without touching the underlying file (§4.2.3).
func TestGetRawCache(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	submitWC(t, c, "/data/t", "/out/1")
	var cacheFS hmrext.CacheFS = c.M3R.CachingFS()
	raw := cacheFS.GetRawCache()

	// The output is cached and on disk.
	if !raw.Exists("/out/1/part-00000") {
		t.Fatal("output partition not in cache")
	}
	// Deleting through the raw cache removes only the cache entry.
	if err := raw.Delete("/out/1", true); err != nil {
		t.Fatalf("raw delete: %v", err)
	}
	if raw.Exists("/out/1/part-00000") {
		t.Error("cache entry survived raw delete")
	}
	if !c.FS.Exists("/out/1/part-00000") {
		t.Error("raw cache delete must not touch the underlying file")
	}
	// Byte-level access through the raw cache is refused.
	if _, err := raw.Open("/data/t"); err == nil {
		t.Error("raw cache should not serve byte reads")
	}
}

// TestGetCacheRecordReader: cache queries return the cached key/value
// sequence (§4.2.4).
func TestGetCacheRecordReader(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	submitWC(t, c, "/data/t", "/out/1")
	cfs := c.M3R.CachingFS()
	it, ok, err := cfs.GetCacheRecordReader("/out/1/part-00000")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("output partition not cached")
	}
	n := 0
	for {
		if _, more := it.Next(); !more {
			break
		}
		n++
	}
	if n == 0 {
		t.Error("cached sequence empty")
	}
	if _, ok, err := cfs.GetCacheRecordReader("/no/such/path"); ok || err != nil {
		t.Errorf("uncached path should report !ok with no error, got ok=%v err=%v", ok, err)
	}
}

// TestDedupAblation: with m3r.shuffle.dedup off, broadcast-heavy shuffles
// move more bytes (§3.2.2.3 / §6.3's discussion of dedup cost).
func TestDedupAblation(t *testing.T) {
	bytesWith := map[bool]int64{}
	for _, dedup := range []bool{true, false} {
		c := newCluster(t, lab.Options{Nodes: 2})
		if err := wordcount.Generate(c.FS, "/data/t", 16<<10, 3); err != nil {
			t.Fatal(err)
		}
		job := wordcount.NewJob("/data/t", "/out/w", 4, true)
		// Disable the combiner so repeated IntWritable(1) objects survive
		// to the shuffle... they are distinct objects though; use matvec
		// instead? The broadcast case is exercised by matvec; here we
		// only check the knob wires through: same job, dedup off must not
		// move FEWER bytes than dedup on.
		job.SetBool(conf.KeyM3RDedup, dedup)
		before := c.Stats.Snapshot()
		if _, err := c.M3R.Submit(job); err != nil {
			t.Fatalf("submit: %v", err)
		}
		d := sim.Delta(before, c.Stats.Snapshot())
		bytesWith[dedup] = d[sim.RemoteBytes]
	}
	if bytesWith[false] < bytesWith[true] {
		t.Errorf("dedup off moved fewer bytes (%d) than dedup on (%d)", bytesWith[false], bytesWith[true])
	}
}

// TestForceHadoopFallback: a job carrying m3r.job.force.hadoop runs on the
// fallback Hadoop engine when one is attached, as lab attaches one (§5.3
// integrated mode).
func TestForceHadoopFallback(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/t", 8<<10, 5); err != nil {
		t.Fatal(err)
	}
	job := wordcount.NewJob("/data/t", "/out/forced", 2, false)
	job.SetBool(conf.KeyForceHadoop, true)
	rep, err := c.M3R.Submit(job)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if rep.Engine != "hadoop" {
		t.Errorf("forced job ran on %q", rep.Engine)
	}
	// Without the flag it runs on m3r.
	rep, err = c.M3R.Submit(wordcount.NewJob("/data/t", "/out/unforced", 2, false))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if rep.Engine != "m3r" {
		t.Errorf("unforced job ran on %q", rep.Engine)
	}
}

// TestCacheDisabled: with m3r.cache.enabled=false every run re-reads from
// the filesystem (the cache ablation).
func TestCacheDisabled(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/t", 16<<10, 3); err != nil {
		t.Fatal(err)
	}
	for i, out := range []string{"/out/1", "/out/2"} {
		job := wordcount.NewJob("/data/t", out, 2, true)
		job.SetBool(conf.KeyM3RCache, false)
		before := c.Stats.Snapshot()
		if _, err := c.M3R.Submit(job); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		d := sim.Delta(before, c.Stats.Snapshot())
		if d[sim.CacheHits] != 0 {
			t.Errorf("run %d hit the cache with caching disabled", i)
		}
		if d[sim.HDFSReadBytes] == 0 {
			t.Errorf("run %d read nothing from HDFS", i)
		}
	}
}
