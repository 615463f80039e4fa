package integration_test

import (
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/hadoop"
	"m3r/internal/m3r"
	"m3r/internal/microbench"
	"m3r/internal/sim"
	"m3r/internal/wordcount"
)

// TestCountedOnce holds the engine's statistics to the job counters they are
// read off: for every row of counters.TaskStats, what the statistic moved by
// over a run equals the sum of the run's job counters — an event inside a
// task is counted once, in the task's cell, and the task envelope is the only
// way it reaches the stats.
func TestCountedOnce(t *testing.T) {
	// What the Hadoop engine counts with no task counter behind it (keycheck
	// names the site): its sort spills, which its reports do not carry.
	hadoopDirect := map[string]bool{sim.SpillBytes: true, sim.SpillRawBytes: true, sim.SpillFiles: true}

	wordCount := func(combiner bool, budget int64, set ...string) func(c *cluster, eng engine.Engine) ([]*engine.Report, error) {
		return func(c *cluster, eng engine.Engine) ([]*engine.Report, error) {
			if err := wordcount.Generate(c.fs, "/data/t", 128<<10, 3); err != nil {
				return nil, err
			}
			job := wordcount.NewJob("/data/t", "/out/wc", 3, false)
			if !combiner {
				job.Unset(conf.KeyCombinerClass)
			}
			if budget > 0 {
				job.SetInt64(conf.KeyM3RShuffleBudget, budget)
			}
			for i := 0; i+1 < len(set); i += 2 {
				job.Set(set[i], set[i+1])
			}
			rep, err := eng.Submit(job)
			return []*engine.Report{rep}, err
		}
	}
	for _, tc := range []struct {
		name string
		run  func(c *cluster, eng engine.Engine) ([]*engine.Report, error)
		// moved lists statistics the case exists to move on the M3R engine.
		moved []string
	}{
		{name: "wordcount", run: wordCount(false, 0), moved: []string{sim.ClonedPairs, sim.AliasedPairs, sim.CacheMisses, sim.RemoteBytes}},
		{name: "wordcount with its combiner", run: wordCount(true, 0), moved: []string{sim.ClonedPairs, sim.LocalPairs}},
		// Splits streamed past the cache are misses too (the stat said so
		// before the counter did).
		{name: "wordcount past the cache", run: wordCount(true, 0, conf.KeyM3RCache, "false"), moved: []string{sim.CacheMisses}},
		// A budget a fraction of the shuffle (128 KiB of text): runs overflow to disk and
		// larger resident ones are evicted for smaller newcomers.
		{name: "budgeted with a spill", run: wordCount(false, 24<<10),
			moved: []string{sim.SpillBytes, sim.SpillRawBytes, sim.SpillFiles, sim.EvictedRuns}},
		// Three chained jobs, every pair remote; the second and third read the
		// previous one's output from the cache.
		{name: "remote shuffle microbenchmark, cached after the first job",
			run: func(c *cluster, eng engine.Engine) ([]*engine.Report, error) {
				cfg := microConfig("/mb", 100)
				if err := microbench.Generate(c.fs, cfg); err != nil {
					return nil, err
				}
				return microbench.Run(eng, cfg)
			},
			moved: []string{sim.RemoteBytes, sim.CacheHits, sim.CacheMisses}},
	} {
		for _, engineName := range []string{"m3r", "hadoop"} {
			t.Run(tc.name+"/"+engineName, func(t *testing.T) {
				// No engine pool, whatever the carrier says: the cases pick
				// their own budgets, and a shared pool would move the
				// eviction and spill statistics they assert on.
				c := newClusterPool(t, 3, -1)
				var eng engine.Engine = c.m3r
				if engineName == "hadoop" {
					eng = c.hadoop
				}
				// The input is written before the snapshot; no mapped
				// statistic moves outside a job.
				before := c.stats.Snapshot()
				reports, err := tc.run(c, eng)
				if err != nil {
					t.Fatal(err)
				}
				d := sim.Delta(before, c.stats.Snapshot())
				for _, row := range counters.TaskStats {
					if engineName == "hadoop" && hadoopDirect[row.Stat] {
						continue
					}
					var counted, retries int64
					for _, rep := range reports {
						counted += rep.Counters.Value(row.Group, row.Name)
						retries += rep.Counters.Value(counters.JobGroup, counters.TaskAttemptRetries)
					}
					// An attempt that failed (the chaos leg injects some into
					// the Hadoop engine) reports what it handled to the stats
					// and nothing to the job.
					if d[row.Stat] != counted && !(retries > 0 && d[row.Stat] > counted) {
						t.Errorf("%s moved by %d, the jobs' %s sum to %d (%d attempts retried)", row.Stat, d[row.Stat], row.Name, counted, retries)
					}
				}
				if engineName == "hadoop" {
					if d[sim.ShuffleFetchBytes] == 0 {
						t.Error("shuffle.fetch.bytes did not move")
					}
					return
				}
				for _, stat := range tc.moved {
					if d[stat] == 0 {
						t.Errorf("%s did not move: the case does not exercise it", stat)
					}
				}
			})
		}
	}
}

// An engine handed no statistics sink makes its own: the task envelope's
// absorb step and every caller of Stats() — Reset and Names do not take a nil
// receiver — see a real one.
func TestEnginesMakeTheirOwnStats(t *testing.T) {
	c := newCluster(t, 2)
	if err := wordcount.Generate(c.fs, "/data/t", 32<<10, 3); err != nil {
		t.Fatal(err)
	}
	he, err := hadoop.New(hadoop.Options{FS: c.fs, LocalDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer he.Close()
	me, err := m3r.New(m3r.Options{Backing: c.fs, Places: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	for _, e := range []interface {
		engine.Engine
		Stats() *sim.Stats
	}{he, me} {
		stats := e.Stats()
		if stats == nil {
			t.Fatalf("%s: Stats() is nil", e.Name())
		}
		stats.Reset()
		rep, err := e.Submit(wordcount.NewJob("/data/t", "/out/own-"+e.Name(), 2, false))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		launched := rep.Counters.Value(counters.JobGroup, counters.TotalLaunchedMaps) +
			rep.Counters.Value(counters.JobGroup, counters.TotalLaunchedReduces)
		if got := stats.Get(sim.TasksLaunched); got != launched || got == 0 {
			t.Errorf("%s: tasks.launched = %d, the job launched %d; names %v", e.Name(), got, launched, stats.Names())
		}
	}
	// The M3R engine's runtime counts into the same sink as its tasks.
	if s := me.Stats(); s.Get(sim.ClonedPairs) == 0 || s != me.Runtime().Stats() {
		t.Errorf("m3r: cloned.pairs = %d, runtime shares the sink: %v", s.Get(sim.ClonedPairs), s == me.Runtime().Stats())
	}
}
