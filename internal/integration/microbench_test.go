package integration_test

import (
	"fmt"
	"testing"

	"m3r/internal/dfs"
	"m3r/internal/formats"
	"m3r/internal/lab"
	"m3r/internal/microbench"
	"m3r/internal/sim"
)

func microConfig(dir string, percent int) microbench.Config {
	return microbench.Config{
		Pairs:      300,
		ValueBytes: 256,
		Percent:    percent,
		Iterations: 3,
		Partitions: 3,
		Dir:        dir,
		Seed:       5,
	}
}

// countPairs reads every part file of a dataset (through the cache for
// M3R temp outputs) and returns the pair count.
func countPairs(t *testing.T, fs dfs.FileSystem, dir string) int {
	t.Helper()
	files, err := dfs.ListRecursive(fs, dir)
	if err != nil {
		t.Fatalf("list %s: %v", dir, err)
	}
	n := 0
	for _, f := range files {
		if dfs.Base(f.Path) == formats.SuccessMarker {
			continue
		}
		pairs, err := formats.ReadSeqFileAll(fs, f.Path)
		if err != nil {
			t.Fatalf("read %s: %v", f.Path, err)
		}
		n += len(pairs)
	}
	return n
}

// TestMicrobenchPreservesPairs: the 3-iteration pipeline must end with
// exactly the input pair population on both engines, at several remote
// ratios.
func TestMicrobenchPreservesPairs(t *testing.T) {
	for _, percent := range []int{0, 50, 100} {
		t.Run(fmt.Sprintf("remote%d", percent), func(t *testing.T) {
			c := newCluster(t, lab.Options{Nodes: 3})
			cfg := microConfig("/mb", percent)
			if err := microbench.Generate(c.FS, cfg); err != nil {
				t.Fatalf("generate: %v", err)
			}
			if _, err := microbench.Run(c.M3R, cfg); err != nil {
				t.Fatalf("m3r run: %v", err)
			}
			if got := countPairs(t, c.FS, "/mb/final"); got != cfg.Pairs {
				t.Errorf("m3r final pairs: %d, want %d", got, cfg.Pairs)
			}

			hcfg := microConfig("/mbh", percent)
			if err := microbench.Generate(c.FS, hcfg); err != nil {
				t.Fatalf("generate: %v", err)
			}
			if _, err := microbench.Run(c.Hadoop, hcfg); err != nil {
				t.Fatalf("hadoop run: %v", err)
			}
			if got := countPairs(t, c.FS, "/mbh/final"); got != hcfg.Pairs {
				t.Errorf("hadoop final pairs: %d, want %d", got, hcfg.Pairs)
			}
		})
	}
}

// TestMicrobenchRemoteBytesScaleWithRatio: on M3R the remote shuffle bytes
// must grow with the remote percentage and be zero at 0% — the mechanism
// behind Fig. 6's linear profile.
func TestMicrobenchRemoteBytesScaleWithRatio(t *testing.T) {
	var bytesAt = map[int]int64{}
	for _, percent := range []int{0, 40, 100} {
		c := newCluster(t, lab.Options{Nodes: 3})
		cfg := microConfig("/mb", percent)
		if err := microbench.Generate(c.FS, cfg); err != nil {
			t.Fatalf("generate: %v", err)
		}
		before := c.Stats.Snapshot()
		if _, err := microbench.Run(c.M3R, cfg); err != nil {
			t.Fatalf("run: %v", err)
		}
		d := sim.Delta(before, c.Stats.Snapshot())
		bytesAt[percent] = d[sim.RemoteBytes]
	}
	if bytesAt[0] != 0 {
		t.Errorf("0%% remote shuffled %d bytes; placed inputs + mod partitioner should keep everything local", bytesAt[0])
	}
	if !(bytesAt[40] > 0 && bytesAt[100] > bytesAt[40]) {
		t.Errorf("remote bytes should grow with ratio: %v", bytesAt)
	}
}

// TestMicrobenchCacheBenefit: iterations 2 and 3 must be all cache hits on
// M3R (the constant-offset drop between iteration lines in Fig. 6).
func TestMicrobenchCacheBenefit(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 3})
	cfg := microConfig("/mb", 20)
	if err := microbench.Generate(c.FS, cfg); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if _, err := microbench.Run(c.M3R, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Iteration 1 reads the input from HDFS (misses); iterations 2 and 3
	// read the previous iteration's cached output (hits, no HDFS reads).
	hits := c.Stats.Get(sim.CacheHits)
	if hits == 0 {
		t.Error("iterations 2-3 should hit the cache")
	}
	// Intermediate outputs never reached HDFS.
	if c.FS.Exists("/mb/temp_iter_1") || c.FS.Exists("/mb/temp_iter_2") {
		t.Error("temporary iteration outputs must not be written to HDFS")
	}
	if !c.FS.Exists("/mb/final") {
		t.Error("final output must be written to HDFS")
	}
	// Consumed intermediates were deleted from the cache by Run.
	if c.M3R.CachingFS().Exists("/mb/temp_iter_1") {
		t.Error("consumed intermediate input should have been deleted from the cache")
	}
}

// TestRepartitionAlignsData reproduces §6.1.1: data written with a foreign
// layout shuffles remotely; after the one-off repartition job the same
// pipeline at 0%% remote ratio shuffles nothing.
func TestRepartitionAlignsData(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 3})
	cfg := microConfig("/mb", 0)
	if err := microbench.GenerateUnaligned(c.FS, cfg, "/mb/foreign"); err != nil {
		t.Fatalf("generate: %v", err)
	}

	// Repartition once (this itself shuffles remotely — the 83s one-off).
	before := c.Stats.Snapshot()
	if _, err := c.M3R.Submit(cfg.RepartitionJob("/mb/foreign", "/mb/input")); err != nil {
		t.Fatalf("repartition: %v", err)
	}
	dRepart := sim.Delta(before, c.Stats.Snapshot())
	if dRepart[sim.RemoteBytes] == 0 {
		t.Error("repartitioning foreign data should shuffle remotely")
	}

	// Now the pipeline at 0% is fully local.
	before = c.Stats.Snapshot()
	if _, err := microbench.Run(c.M3R, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	d := sim.Delta(before, c.Stats.Snapshot())
	if d[sim.RemoteBytes] != 0 {
		t.Errorf("post-repartition 0%% run shuffled %d bytes remotely", d[sim.RemoteBytes])
	}
	if got := countPairs(t, c.FS, "/mb/final"); got != cfg.Pairs {
		t.Errorf("final pairs: %d, want %d", got, cfg.Pairs)
	}
}
