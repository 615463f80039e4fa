package lab_test

import (
	"cmp"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/lab"
	"m3r/internal/microbench"
	"m3r/internal/sim"
	"m3r/internal/sysml"
	"m3r/internal/testenv"
	"m3r/internal/wordcount"
)

// pinnedEngine submits every job with the knobs its ceiling depends on set
// explicitly, so a default from the M3R_CONF_DEFAULTS carrier cannot move
// it (explicit beats carrier): the job's shuffle cap budget (0 opts it out
// of the engine's pool), the spill codec ("" is none), cache and dedup on,
// one attempt a task.
type pinnedEngine struct {
	engine.Engine
	budget int64
	codec  string
}

func (e pinnedEngine) Submit(job *conf.JobConf) (*engine.Report, error) {
	job.SetInt64(conf.KeyM3RShuffleBudget, e.budget)
	job.Set(conf.KeyM3RSpillCodec, cmp.Or(e.codec, "none"))
	job.SetBool(conf.KeyM3RCache, true)
	job.SetBool(conf.KeyM3RDedup, true)
	job.SetInt(conf.KeyMaxMapAttempts, 1)
	job.SetInt(conf.KeyMaxReduceAttempts, 1)
	return e.Engine.Submit(job)
}

// skipUnpinned skips a ceiling where its counts are not pinned.
func skipUnpinned(t *testing.T) {
	t.Helper()
	if testenv.Race {
		t.Skip("allocation counts rest on warm pools; the race detector drops a share of what is Put")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("ceilings are pinned on amd64, not %s", runtime.GOARCH)
	}
}

// perRec runs rep, which returns its map-output records, once cold and
// once warm, then reps times with GC off, so that no cycle empties a
// sync.Pool between them; reset runs before each rep, outside the count,
// as the benchmark's does. It returns what the benchmark's
// m3r_allocs_per_rec and m3r_alloc_bytes_per_rec count over the measured
// reps: mallocs and bytes allocated per map-output record.
func perRec(t *testing.T, reps int, reset func() error, rep func() (int64, error)) (allocs, bytes float64) {
	t.Helper()
	run := func() int64 {
		if err := reset(); err != nil {
			t.Fatal(err)
		}
		recs, err := rep()
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	run()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	var mallocs, total uint64
	var recs int64
	var ms0, ms1 runtime.MemStats
	for range reps {
		if err := reset(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms0)
		r, err := rep()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatal(err)
		}
		mallocs += ms1.Mallocs - ms0.Mallocs
		total += ms1.TotalAlloc - ms0.TotalAlloc
		recs += r
	}
	return float64(mallocs) / float64(recs), float64(total) / float64(recs)
}

// mapOutputRecords sums MAP_OUTPUT_RECORDS over a sequence's reports.
func mapOutputRecords(reports []*engine.Report) int64 {
	var n int64
	for _, r := range reports {
		n += r.Counters.Value(counters.TaskGroup, counters.MapOutputRecords)
	}
	return n
}

// deleteIfExists removes path from fs when it is there.
func deleteIfExists(fs dfs.FileSystem, path string) error {
	if !fs.Exists(path) {
		return nil
	}
	return fs.Delete(path, true)
}

// TestWordCountAllocs is the workload ceiling of the benchmark's wordcount
// at a small fixed seed: the Fig. 4 WordCount with its combiner over
// 256 KiB of generated text, four reducers, on M3R.
//
// The ceiling is the largest value measured in 20 runs at each of
// GOMAXPROCS 1, 2 and 4 (2.425–2.426 allocs/rec, once decoded records came
// in slabs) plus the benchmark's 3 % bound, set with go1.24 on amd64. 386
// is not pinned. A change that lowers the value lowers the ceiling; raising
// one is a change to a check. Bytes are logged, not checked: in those runs
// they spread over 73.6–74.9 B/rec at GOMAXPROCS 4, more than a tenth of
// the benchmark's 5 % bound.
func TestWordCountAllocs(t *testing.T) {
	skipUnpinned(t)
	const (
		reps            = 8
		maxAllocsPerRec = 2.46
	)
	c := ceilingCluster(t, lab.Options{})
	if err := wordcount.Generate(c.FS, "/wc/in", 256<<10, 5); err != nil {
		t.Fatal(err)
	}
	eng := pinnedEngine{Engine: c.M3R}
	allocs, bytes := perRec(t, reps, func() error { return deleteIfExists(c.M3R.CachingFS(), "/wc/out") }, func() (int64, error) {
		rep, err := eng.Submit(wordcount.NewJob("/wc/in", "/wc/out", 4, true))
		if err != nil {
			return 0, err
		}
		return mapOutputRecords([]*engine.Report{rep}), nil
	})
	t.Logf("%.3f allocs/rec, %.1f B/rec", allocs, bytes)
	if allocs > maxAllocsPerRec {
		t.Errorf("%.3f allocs/rec, ceiling %.3f", allocs, maxAllocsPerRec)
	}
}

// TestShuffleRemoteAllocs is the workload ceiling of the benchmark's
// shuffle_remote at a small fixed seed: the paper's shuffle microbenchmark
// at 100 % remote, 1 000 pairs of 2 KiB values in four partition files of
// one block each, three chained jobs, on M3R. Its ceiling is set as
// TestWordCountAllocs' is, over 0.481–0.484 allocs/rec, measured when a
// job came to lay out its reduce merges once (0.499–0.506 when a job's
// tasks came to take their ids, sinks and small runs from the job's layout
// and a frame's table to ride behind its last chunk, 0.567–0.573 before);
// bytes spread over 2 338.1–2 367.9 B/rec at GOMAXPROCS 4 and are logged
// only.
func TestShuffleRemoteAllocs(t *testing.T) {
	skipUnpinned(t)
	const (
		reps            = 6
		maxAllocsPerRec = 0.50
	)
	c := ceilingCluster(t, lab.Options{BlockSize: 8 << 20})
	cfg := microbench.Config{Pairs: 1000, ValueBytes: 2048, Percent: 100, Iterations: 3, Partitions: 4, Dir: "/mb", Seed: 5}
	if err := microbench.Generate(c.FS, cfg); err != nil {
		t.Fatal(err)
	}
	eng := pinnedEngine{Engine: c.M3R}
	allocs, bytes := perRec(t, reps, func() error { return deleteIfExists(c.M3R.CachingFS(), cfg.Dir+"/final") }, func() (int64, error) {
		reports, err := microbench.Run(eng, cfg)
		return mapOutputRecords(reports), err
	})
	t.Logf("%.3f allocs/rec, %.1f B/rec", allocs, bytes)
	if allocs > maxAllocsPerRec {
		t.Errorf("%.3f allocs/rec, ceiling %.3f", allocs, maxAllocsPerRec)
	}
}

// TestShuffleRemoteColdAllocs is the cold half of TestShuffleRemoteAllocs:
// allocations per map-output record of the sequence's first run on a fresh
// cluster, whose first job reads the four partition files from HDFS into
// the cache. A throwaway fresh cluster runs the sequence first, so the
// process's pools are as warm as the benchmark's cold rep finds them. Its
// ceiling is set as TestWordCountAllocs' is, over 1.268–1.325 allocs/rec,
// measured when a job came to lay out its reduce merges once (1.287–1.346
// when a job's tasks came to take their ids, sinks and small runs from the
// job's layout, 1.351–1.412 before, and 3.038–3.097 before the SequenceFile
// reader came to decode records in place and the cold fill to keep value
// bodies as views of the read).
func TestShuffleRemoteColdAllocs(t *testing.T) {
	skipUnpinned(t)
	const maxAllocsPerRec = 1.36
	cfg := microbench.Config{Pairs: 1000, ValueBytes: 2048, Percent: 100, Iterations: 3, Partitions: 4, Dir: "/mb", Seed: 5}
	cold := func() float64 {
		c := ceilingCluster(t, lab.Options{BlockSize: 8 << 20})
		if err := microbench.Generate(c.FS, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		reports, err := microbench.Run(pinnedEngine{Engine: c.M3R}, cfg)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatal(err)
		}
		if reports[0].Counters.Value(counters.M3RGroup, counters.CacheMissSplits) == 0 {
			t.Fatal("the first job read no split from HDFS")
		}
		return float64(ms1.Mallocs-ms0.Mallocs) / float64(mapOutputRecords(reports))
	}
	cold()
	allocs := cold()
	t.Logf("%.3f allocs/rec", allocs)
	if allocs > maxAllocsPerRec {
		t.Errorf("%.3f allocs/rec, ceiling %.3f", allocs, maxAllocsPerRec)
	}
}

// coldAllocsPerRec returns the allocations per map-output record of one
// run on a fresh cluster built with opts, whose input write puts there and
// whose first job reads that input from HDFS into the cache. A throwaway
// fresh cluster runs first, so the process's pools are as warm as the
// benchmark's cold rep finds them.
func coldAllocsPerRec(t *testing.T, opts lab.Options, write func(dfs.FileSystem) error, run func(engine.Engine) ([]*engine.Report, error)) float64 {
	t.Helper()
	cold := func() float64 {
		c := ceilingCluster(t, opts)
		if err := write(c.FS); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		reports, err := run(c.M3R)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatal(err)
		}
		if reports[0].Counters.Value(counters.M3RGroup, counters.CacheMissSplits) == 0 {
			t.Fatal("the first job read no split from HDFS")
		}
		return float64(ms1.Mallocs-ms0.Mallocs) / float64(mapOutputRecords(reports))
	}
	cold()
	return cold()
}

// TestWordCountColdAllocs is the cold half of TestWordCountAllocs: the
// allocations per map-output record of its job's first run on a fresh
// cluster, which reads the text from HDFS through the line reader. Its
// ceiling is set as TestWordCountAllocs' is, over 2.647–2.652 allocs/rec,
// measured when the cold fill came to keep its lines as views of the read
// window (2.749–2.755 before, when the line reader came to cut lines in
// the read window; 2.748–2.756 with the bufio.Reader it replaced).
func TestWordCountColdAllocs(t *testing.T) {
	skipUnpinned(t)
	const maxAllocsPerRec = 2.73
	allocs := coldAllocsPerRec(t, lab.Options{}, func(fs dfs.FileSystem) error {
		return wordcount.Generate(fs, "/wc/in", 256<<10, 5)
	}, func(eng engine.Engine) ([]*engine.Report, error) {
		rep, err := pinnedEngine{Engine: eng}.Submit(wordcount.NewJob("/wc/in", "/wc/out", 4, true))
		return []*engine.Report{rep}, err
	})
	t.Logf("%.3f allocs/rec", allocs)
	if allocs > maxAllocsPerRec {
		t.Errorf("%.3f allocs/rec, ceiling %.3f", allocs, maxAllocsPerRec)
	}
}

// TestSortSpillColdAllocs is the cold half of TestSortSpillAllocs: the
// allocations per map-output record of its job's first run on a fresh
// cluster, which reads the text from HDFS through the line reader. Its
// ceiling is set as TestWordCountAllocs' is, over 2.491–2.497 allocs/rec,
// measured when the cold fill came to keep its lines as views of the read
// window and a spilled cache block to read back as views of its own
// buffers (2.597–2.602 before, when the line reader came to cut lines in
// the read window; 2.598–2.603 with the bufio.Reader it replaced).
func TestSortSpillColdAllocs(t *testing.T) {
	skipUnpinned(t)
	const (
		input           = 256 << 10
		pool            = input / 8
		maxAllocsPerRec = 2.57
	)
	allocs := coldAllocsPerRec(t, lab.Options{ShuffleBudgetBytes: pool, CacheBudgetBytes: pool}, func(fs dfs.FileSystem) error {
		return wordcount.Generate(fs, "/ss/in", input, 5)
	}, func(eng engine.Engine) ([]*engine.Report, error) {
		rep, err := pinnedEngine{Engine: eng, budget: pool, codec: "flate"}.Submit(sortSpillJob("/ss/in", "/ss/out"))
		return []*engine.Report{rep}, err
	})
	t.Logf("%.3f allocs/rec", allocs)
	if allocs > maxAllocsPerRec {
		t.Errorf("%.3f allocs/rec, ceiling %.3f", allocs, maxAllocsPerRec)
	}
}

// TestSortSpillAllocs is the workload ceiling of the benchmark's
// sort_spill at a small fixed seed: WordCount without its combiner over
// 256 KiB of generated text under an engine pool and cache budget of an
// eighth of the input, spilling through flate, on M3R. The job's own cap
// is pinned at the pool's size: the pool bounds the job anyway, as it
// bounds the benchmark's uncapped job, while an unset key would take the
// carrier's cap and an explicit 0 opts a job out of the pool. Its ceiling
// is set as TestWordCountAllocs' is, over 2.268–2.269 allocs/rec, measured
// when a spilled cache block came to read back as views of one buffer a
// segment block (2.377–2.378 before, when spill streams came to take their
// read buffers from a pool; 2.380–2.382 when the budgeted runs became
// grouped and the raw merge came to make one value iterator). Which runs
// spill follows task scheduling, so bytes spread over 91.7–116.7 B/rec and
// are logged only.
func TestSortSpillAllocs(t *testing.T) {
	skipUnpinned(t)
	const (
		input           = 256 << 10
		pool            = input / 8
		reps            = 8
		maxAllocsPerRec = 2.34
	)
	c := ceilingCluster(t, lab.Options{ShuffleBudgetBytes: pool, CacheBudgetBytes: pool})
	if err := wordcount.Generate(c.FS, "/ss/in", input, 5); err != nil {
		t.Fatal(err)
	}
	eng := pinnedEngine{Engine: c.M3R, budget: pool, codec: "flate"}
	allocs, bytes := perRec(t, reps, func() error { return deleteIfExists(c.M3R.CachingFS(), "/ss/out") }, func() (int64, error) {
		rep, err := eng.Submit(sortSpillJob("/ss/in", "/ss/out"))
		if err != nil {
			return 0, err
		}
		if rep.Counters.Value(counters.M3RGroup, counters.SpilledRuns) == 0 {
			return 0, fmt.Errorf("sort_spill spilled nothing")
		}
		return mapOutputRecords([]*engine.Report{rep}), nil
	})
	t.Logf("%.3f allocs/rec, %.1f B/rec", allocs, bytes)
	if allocs > maxAllocsPerRec {
		t.Errorf("%.3f allocs/rec, ceiling %.3f", allocs, maxAllocsPerRec)
	}
}

// TestHadoopAllocs is the workload ceiling of the Hadoop engine, the
// baseline every M3R figure is a ratio to, on small versions of the four
// benchmark workloads, counted as the M3R ceilings count theirs: the
// sort_spill job (flate spills) and WordCount with its combiner, each over
// 256 KiB of generated text with four reducers, TestShuffleRemoteAllocs'
// three chained jobs and TestPageRankSequenceAllocs' fifteen. Its ceilings
// are set as TestWordCountAllocs' are, over the values measured in 20 runs
// at each of GOMAXPROCS 1, 2 and 4, with go1.24 on amd64, when the
// SequenceFile reader came to decode records in place out of a pooled
// window and spill streams to take their read buffers from a pool:
// sort_spill 2.276–2.277 allocs/rec, wordcount 2.518–2.519, shuffle_remote
// 2.116–2.125 (6.232–6.240 before: the old reader's length and marker
// reads allocated) and pagerank_iter 24.717–24.749 (29.481–29.510 before);
// then shuffle_remote 2.078–2.088 and pagerank_iter 23.905–23.948, when a
// job came to cut its tasks' ids from one chunk and to start their
// goroutines without a closure; then pagerank_iter 22.319–22.355, when the
// reduce's raw merge came to take short runs of objects, and its float
// bodies, from shared slabs.
// Bytes are logged only: they spread over 68.5–84.1, 75.7–84.5,
// 2 286–2 449 and 4 365–4 561 B/rec.
func TestHadoopAllocs(t *testing.T) {
	skipUnpinned(t)
	const reps = 8
	c := ceilingCluster(t, lab.Options{})
	if err := wordcount.Generate(c.FS, "/h/in", 256<<10, 5); err != nil {
		t.Fatal(err)
	}
	// shuffle_remote's partition files are a block each, as the benchmark's.
	mbc := ceilingCluster(t, lab.Options{BlockSize: 8 << 20})
	mb := microbench.Config{Pairs: 1000, ValueBytes: 2048, Percent: 100, Iterations: 3, Partitions: 4, Dir: "/h/mb", Seed: 5}
	if err := microbench.Generate(mbc.FS, mb); err != nil {
		t.Fatal(err)
	}
	pr := sysml.PageRankConfig{Nodes: 800, BlockSize: 100, Sparsity: 0.01, Iterations: 5, Seed: 3}
	G, p0, err := sysml.WritePageRankInputs(&sysml.Driver{FS: c.FS, Partitions: 4, Dir: "/h/pr/in"}, pr)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(job func() *conf.JobConf) func(engine.Engine) ([]*engine.Report, error) {
		return func(eng engine.Engine) ([]*engine.Report, error) {
			rep, err := eng.Submit(job())
			return []*engine.Report{rep}, err
		}
	}
	for _, tc := range []struct {
		name            string
		c               *lab.Cluster
		codec           string
		out             string // removed before every rep
		run             func(engine.Engine) ([]*engine.Report, error)
		maxAllocsPerRec float64
	}{
		{"sort_spill", c, "flate", "/h/out", submit(func() *conf.JobConf { return sortSpillJob("/h/in", "/h/out") }), 2.35},
		{"wordcount", c, "", "/h/out", submit(func() *conf.JobConf { return wordcount.NewJob("/h/in", "/h/out", 4, true) }), 2.60},
		{"shuffle_remote", mbc, "", mb.Dir + "/final", func(eng engine.Engine) ([]*engine.Report, error) {
			return microbench.Run(eng, mb)
		}, 2.15},
		{"pagerank_iter", c, "", "/h/pr/run", func(eng engine.Engine) ([]*engine.Report, error) {
			d, err := sysml.NewDriver(eng, "/h/pr/run", 4)
			if err != nil {
				return nil, err
			}
			_, err = sysml.IteratePageRank(d, pr, G, p0)
			return d.Reports, err
		}, 23.03},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := pinnedEngine{Engine: tc.c.Hadoop, codec: tc.codec}
			allocs, bytes := perRec(t, reps, func() error { return deleteIfExists(tc.c.FS, tc.out) }, func() (int64, error) {
				reports, err := tc.run(eng)
				if err != nil {
					return 0, err
				}
				return mapOutputRecords(reports), nil
			})
			t.Logf("%.3f allocs/rec, %.1f B/rec", allocs, bytes)
			if allocs > tc.maxAllocsPerRec {
				t.Errorf("%.3f allocs/rec, ceiling %.3f", allocs, tc.maxAllocsPerRec)
			}
		})
	}
}

// sortSpillJob is the benchmark's sort_spill job: WordCount's Fig. 4 job
// without its combiner.
func sortSpillJob(in, out string) *conf.JobConf {
	job := wordcount.NewJob(in, out, 4, true)
	job.SetJobName("sort_spill")
	job.Unset(conf.KeyCombinerClass)
	return job
}

// ceilingCluster is a four-node cluster on the zero cost model with one
// worker a place, as the benchmark's. Budgets opts leaves at 0 are -1: no
// pool and no cache budget, whatever the environment carrier says.
func ceilingCluster(t *testing.T, opts lab.Options) *lab.Cluster {
	t.Helper()
	opts.Nodes, opts.WorkersPerPlace, opts.Cost = 4, 1, sim.Zero()
	if opts.ShuffleBudgetBytes == 0 {
		opts.ShuffleBudgetBytes = -1
	}
	if opts.CacheBudgetBytes == 0 {
		opts.CacheBudgetBytes = -1
	}
	c, err := lab.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestPageRankSequenceAllocs is the workload ceiling of a small fixed-seed
// PageRank on M3R: 5 iterations over 800 nodes in 100-node blocks, i.e. 15
// jobs a rep. It counts what the benchmark's m3r_allocs_per_rec counts —
// mallocs over a warm rep, including the client's deletes, per map-output
// record — and also per job. GC is off inside the measured reps, so no
// cycle empties a sync.Pool between them.
//
// The ceilings are the largest value measured in 20 runs at each of
// GOMAXPROCS 1, 2 and 4 (5.63–5.64 allocs/rec and 375–376 allocs/job)
// plus the benchmark's 3 % bound, set with go1.24 on amd64 when a job came
// to build its reduce merges' comparator and cancel checks once, with
// their layout (5.69 and 379 in all 60 before, when the map side's clones
// and the short arrivals came to take their objects and float bodies from
// shared slabs and a job to lay out its reduce merges once; 8.73–8.74 and
// 582–583 before that, how many chunks the job's pair arena took following
// how its tasks interleaved; 9.98–10.00 and 665–667 before a job came to
// lay its tasks' bookkeeping out once). 386 is not pinned. A
// change that lowers the value lowers the ceiling; raising one is a change
// to a check.
func TestPageRankSequenceAllocs(t *testing.T) {
	skipUnpinned(t)
	const (
		nodes, block, iters = 800, 100, 5
		reps                = 12
		maxAllocsPerRec     = 5.81
		maxAllocsPerJob     = 387.0
	)
	c := ceilingCluster(t, lab.Options{})
	cfg := sysml.PageRankConfig{Nodes: nodes, BlockSize: block, Sparsity: 0.01, Iterations: iters, Seed: 3}
	G, p0, err := sysml.WritePageRankInputs(&sysml.Driver{FS: c.FS, Partitions: 4, Dir: "/pr/in"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := func() (jobs int, recs int64) {
		d, err := sysml.NewDriver(pinnedEngine{Engine: c.M3R}, "/pr/m3r", 4)
		if err != nil {
			t.Fatal(err)
		}
		if d.FS.Exists(d.Dir) {
			if err := d.FS.Delete(d.Dir, true); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sysml.IteratePageRank(d, cfg, G, p0); err != nil {
			t.Fatal(err)
		}
		for _, r := range d.Reports {
			recs += r.Counters.Value(counters.TaskGroup, counters.MapOutputRecords)
		}
		return len(d.Reports), recs
	}
	rep()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rep()
	var jobs int
	var recs int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < reps; i++ {
		j, r := rep()
		jobs += j
		recs += r
	}
	runtime.ReadMemStats(&ms1)
	allocs := float64(ms1.Mallocs - ms0.Mallocs)
	perRec, perJob := allocs/float64(recs), allocs/float64(jobs)
	t.Logf("%d jobs, %d map-output records: %.2f allocs/rec, %.0f allocs/job", jobs, recs, perRec, perJob)
	if perRec > maxAllocsPerRec {
		t.Errorf("%.2f allocs/rec, ceiling %.2f", perRec, maxAllocsPerRec)
	}
	if perJob > maxAllocsPerJob {
		t.Errorf("%.0f allocs/job, ceiling %.0f", perJob, maxAllocsPerJob)
	}
}
