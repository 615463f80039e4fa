// Package bench holds the top-level benchmark per table/figure of the
// paper's evaluation (§6). Each benchmark runs the figure's workload at a
// reduced size on a simulated 4-node cluster with the scaled-down cost
// model (see internal/sim); `cmd/m3rbench` runs the same experiments as
// parameter sweeps and prints the paper's series.
//
// Note on caching: one cluster serves all b.N iterations of a benchmark,
// so M3R operates with a warm cache after the first iteration — the
// steady-state the paper measures for iterative jobs ("we pre-populated
// our cache with the input data", §6.2). The Hadoop engine has no
// cross-job state, so its iterations are identical.
//
// Run with:
//
//	go test -bench=. -benchmem .
package bench

import (
	"fmt"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/engine"
	"m3r/internal/lab"
	"m3r/internal/matrix"
	"m3r/internal/microbench"
	"m3r/internal/sim"
	"m3r/internal/sysml"
	"m3r/internal/wordcount"
	"m3r/internal/x10"
)

const benchNodes = 4

func newBenchCluster(b *testing.B) *lab.Cluster {
	b.Helper()
	c, err := lab.New(lab.Options{Nodes: benchNodes, Dir: b.TempDir()})
	if err != nil {
		b.Fatalf("cluster: %v", err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

func pick(c *lab.Cluster, name string) engine.Engine {
	if name == "m3r" {
		return c.M3R
	}
	return c.Hadoop
}

// BenchmarkFig6_Microbenchmark: the §6.1 shuffle microbenchmark — three
// iterations per op, at three points of the remote-percentage sweep.
func BenchmarkFig6_Microbenchmark(b *testing.B) {
	for _, eng := range []string{"hadoop", "m3r"} {
		for _, pct := range []int{0, 50, 100} {
			b.Run(fmt.Sprintf("%s/remote%d", eng, pct), func(b *testing.B) {
				c := newBenchCluster(b)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cfg := microbench.Config{
						Pairs: 500, ValueBytes: 1024, Percent: pct,
						Iterations: 3, Partitions: benchNodes,
						Dir:  fmt.Sprintf("/mb%d", i),
						Seed: 1,
					}
					b.StopTimer()
					if err := microbench.Generate(c.FS, cfg); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := microbench.Run(pick(c, eng), cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(c.Stats.Get(sim.RemoteBytes))/float64(b.N)/1024, "remoteKB/op")
			})
		}
	}
}

// BenchmarkRepartition: the §6.1.1 one-off repartitioning job.
func BenchmarkRepartition(b *testing.B) {
	c := newBenchCluster(b)
	cfg := microbench.Config{
		Pairs: 500, ValueBytes: 1024, Percent: 0,
		Iterations: 1, Partitions: benchNodes, Dir: "/mb", Seed: 1,
	}
	if err := microbench.GenerateUnaligned(c.FS, cfg, "/mb/foreign"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.M3R.Submit(cfg.RepartitionJob("/mb/foreign", fmt.Sprintf("/mb/aligned%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7_MatVec: §6.2's hand-written sparse matrix × dense vector,
// three iterations (six jobs) per op.
func BenchmarkFig7_MatVec(b *testing.B) {
	for _, eng := range []string{"hadoop", "m3r"} {
		b.Run(eng, func(b *testing.B) {
			c := newBenchCluster(b)
			cfg := matrix.Config{
				RowBlocks: benchNodes, ColBlocks: benchNodes, BlockSize: 100,
				Sparsity: 0.01, Partitions: benchNodes, Dir: "/mv", Seed: 7,
			}
			if err := matrix.Generate(c.FS, cfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// RunIterations writes under unique temp names, but the
				// final output path must be fresh per run.
				runCfg := cfg
				runCfg.Dir = fmt.Sprintf("/mv/run%d", i)
				b.StopTimer()
				if err := matrix.Generate(c.FS, runCfg); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := matrix.RunIterations(pick(c, eng), runCfg, 3); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Stats.Get(sim.RemoteBytes)+c.Stats.Get(sim.ShuffleFetchBytes))/float64(b.N)/1024, "shuffleKB/op")
		})
	}
}

// BenchmarkFig8_WordCount: §6.3's three series — Hadoop with the reusing
// mapper, Hadoop with the fresh-allocating mapper, and M3R.
func BenchmarkFig8_WordCount(b *testing.B) {
	series := []struct {
		name      string
		engine    string
		immutable bool
	}{
		{"hadoop-reuse", "hadoop", false},
		{"hadoop-new", "hadoop", true},
		{"m3r", "m3r", true},
		{"m3r-mutating", "m3r", false}, // extra: the cloning cost on M3R
	}
	for _, s := range series {
		b.Run(s.name, func(b *testing.B) {
			c := newBenchCluster(b)
			if err := wordcount.Generate(c.FS, "/data/t", 1<<20, 42); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job := wordcount.NewJob("/data/t", fmt.Sprintf("/out/%d", i), benchNodes, s.immutable)
				if _, err := pick(c, s.engine).Submit(job); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Stats.Get(sim.ClonedPairs))/float64(b.N), "clonedPairs/op")
		})
	}
}

// BenchmarkTransportWordCount compares the place transport backends
// end-to-end: the same M3R WordCount, inproc (frames loop back through
// memory) vs tcp-loopback (every cross-place shuffle frame round-trips
// through the destination place's frame server over a real 127.0.0.1
// socket). Outputs are byte-identical; only the wire differs.
func BenchmarkTransportWordCount(b *testing.B) {
	for _, backend := range []string{"inproc", "tcp-loopback"} {
		b.Run(backend, func(b *testing.B) {
			var tr x10.Transport
			if backend == "tcp-loopback" {
				addrs := make([]string, benchNodes)
				for p := 0; p < benchNodes; p++ {
					fs, err := x10.ServeFrames("127.0.0.1:0", p, x10.FrameServerOptions{})
					if err != nil {
						b.Fatal(err)
					}
					defer fs.Close()
					addrs[p] = fs.Addr()
				}
				tr = x10.NewTCPTransport(addrs, x10.TCPOptions{})
			}
			c, err := lab.New(lab.Options{Nodes: benchNodes, Dir: b.TempDir(), Transport: tr})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			if err := wordcount.Generate(c.FS, "/data/t", 1<<20, 42); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job := wordcount.NewJob("/data/t", fmt.Sprintf("/out/%d", i), benchNodes, true)
				if _, err := c.M3R.Submit(job); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Stats.Get(sim.NetFrames))/float64(b.N), "netFrames/op")
			b.ReportMetric(float64(c.Stats.Get(sim.NetBytes))/float64(b.N), "netBytes/op")
		})
	}
}

// BenchmarkParallelMergeWordCount compares the reduce-side merge serial vs
// staged (conf.KeyMergeParallelism) end-to-end, on both engines: the same
// WordCount job, byte-identical output, only the merge topology differs.
// With the feature off the code path is exactly the pre-staging merge, so
// the serial legs double as the no-regression baseline.
func BenchmarkParallelMergeWordCount(b *testing.B) {
	for _, eng := range []string{"m3r", "hadoop"} {
		for _, variant := range []struct {
			name string
			par  int
		}{{"serial", 0}, {"staged4", 4}} {
			b.Run(eng+"/"+variant.name, func(b *testing.B) {
				c := newBenchCluster(b)
				if err := wordcount.Generate(c.FS, "/data/t", 1<<20, 42); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					job := wordcount.NewJob("/data/t", fmt.Sprintf("/out/%d", i), benchNodes, true)
					if variant.par > 0 {
						job.SetInt(conf.KeyMergeParallelism, variant.par)
						job.SetInt(conf.KeyMergeMinRuns, 2)
					}
					if _, err := pick(c, eng).Submit(job); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSpillCodecWordCount compares the spill block codecs on a
// tight-budget WordCount: the flate leg trades mapper
// CPU for disk bytes, and the spillKB/rawKB metrics report the stored vs
// record-format spill volume (SPILLED_BYTES vs SPILLED_RAW_BYTES) so the
// compression ratio on repetitive text keys lands in the bench output.
func BenchmarkSpillCodecWordCount(b *testing.B) {
	for _, codec := range []string{"none", "flate"} {
		b.Run(codec, func(b *testing.B) {
			c := newBenchCluster(b)
			if err := wordcount.Generate(c.FS, "/data/t", 1<<20, 42); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job := wordcount.NewJob("/data/t", fmt.Sprintf("/out/%d", i), benchNodes, true)
				job.SetInt64(conf.KeyM3RShuffleBudget, 16<<10)
				job.Set(conf.KeyM3RSpillCodec, codec)
				if _, err := c.M3R.Submit(job); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Stats.Get(sim.SpillBytes))/float64(b.N)/1024, "spillKB/op")
			b.ReportMetric(float64(c.Stats.Get(sim.SpillRawBytes))/float64(b.N)/1024, "rawKB/op")
		})
	}
}

// BenchmarkSpillCodecRepartition: the codec comparison on the repartition
// microbench, whose values are pseudo-random 1 KiB blobs — the adversarial
// case for flate, pinning the cost of the codec when there is nothing to
// compress (per-block stored fallback keeps the overhead to block headers).
func BenchmarkSpillCodecRepartition(b *testing.B) {
	for _, codec := range []string{"none", "flate"} {
		b.Run(codec, func(b *testing.B) {
			c := newBenchCluster(b)
			cfg := microbench.Config{
				Pairs: 500, ValueBytes: 1024, Percent: 0,
				Iterations: 1, Partitions: benchNodes, Dir: "/mb", Seed: 1,
			}
			if err := microbench.GenerateUnaligned(c.FS, cfg, "/mb/foreign"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job := cfg.RepartitionJob("/mb/foreign", fmt.Sprintf("/mb/aligned%d", i))
				job.SetInt64(conf.KeyM3RShuffleBudget, 16<<10)
				job.Set(conf.KeyM3RSpillCodec, codec)
				if _, err := c.M3R.Submit(job); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Stats.Get(sim.SpillBytes))/float64(b.N)/1024, "spillKB/op")
			b.ReportMetric(float64(c.Stats.Get(sim.SpillRawBytes))/float64(b.N)/1024, "rawKB/op")
		})
	}
}

// benchSysml runs one SystemML-style algorithm per op.
func benchSysml(b *testing.B, eng string, run func(d *sysml.Driver, dir string) error) {
	c := newBenchCluster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := fmt.Sprintf("/sysml%d", i)
		d, err := sysml.NewDriver(pick(c, eng), dir, benchNodes)
		if err != nil {
			b.Fatal(err)
		}
		if err := run(d, dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9_GNMF: SystemML global non-negative matrix factorization,
// one iteration (10 MR jobs) per op.
func BenchmarkFig9_GNMF(b *testing.B) {
	cfg := sysml.GNMFConfig{
		Rows: 200, Cols: 200, Rank: 10, BlockSize: 100,
		Sparsity: 0.01, Iterations: 1, Seed: 41,
	}
	for _, eng := range []string{"hadoop", "m3r"} {
		b.Run(eng, func(b *testing.B) {
			benchSysml(b, eng, func(d *sysml.Driver, _ string) error {
				_, _, err := sysml.GNMF(d, cfg)
				return err
			})
		})
	}
}

// BenchmarkFig10_LinReg: SystemML linear regression (CG), one iteration
// (~9 MR jobs) per op.
func BenchmarkFig10_LinReg(b *testing.B) {
	cfg := sysml.LinRegConfig{
		Points: 200, Vars: 100, BlockSize: 100, Iterations: 1, Seed: 31,
	}
	for _, eng := range []string{"hadoop", "m3r"} {
		b.Run(eng, func(b *testing.B) {
			benchSysml(b, eng, func(d *sysml.Driver, _ string) error {
				_, err := sysml.LinReg(d, cfg)
				return err
			})
		})
	}
}

// BenchmarkFig11_PageRank: SystemML PageRank, three iterations (9 MR
// jobs) per op.
func BenchmarkFig11_PageRank(b *testing.B) {
	cfg := sysml.PageRankConfig{
		Nodes: 200, BlockSize: 100, Sparsity: 0.01, Iterations: 3, Seed: 21,
	}
	for _, eng := range []string{"hadoop", "m3r"} {
		b.Run(eng, func(b *testing.B) {
			benchSysml(b, eng, func(d *sysml.Driver, _ string) error {
				_, err := sysml.PageRank(d, cfg)
				return err
			})
		})
	}
}

// BenchmarkAblation_ImmutableOutput: Fig. 4's two WordCount variants on
// M3R — the clone-elision win of §4.1.
func BenchmarkAblation_ImmutableOutput(b *testing.B) {
	for _, variant := range []struct {
		name      string
		immutable bool
	}{{"mutating", false}, {"immutable", true}} {
		b.Run(variant.name, func(b *testing.B) {
			c := newBenchCluster(b)
			if err := wordcount.Generate(c.FS, "/data/t", 1<<20, 42); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job := wordcount.NewJob("/data/t", fmt.Sprintf("/out/%d", i), benchNodes, variant.immutable)
				if _, err := c.M3R.Submit(job); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Stats.Get(sim.ClonedPairs))/float64(b.N), "clonedPairs/op")
		})
	}
}

// BenchmarkAblation_PartitionStability: the matvec sum job with the
// row partitioner (stable: zero remote shuffle) vs the hash partitioner.
func BenchmarkAblation_PartitionStability(b *testing.B) {
	for _, variant := range []struct {
		name        string
		partitioner string
	}{{"row", ""}, {"hash", "org.apache.hadoop.mapred.lib.HashPartitioner"}} {
		b.Run(variant.name, func(b *testing.B) {
			c := newBenchCluster(b)
			cfg := matrix.Config{
				RowBlocks: benchNodes, ColBlocks: benchNodes, BlockSize: 100,
				Sparsity: 0.01, Partitions: benchNodes, Dir: "/mv", Seed: 7,
			}
			if err := matrix.Generate(c.FS, cfg); err != nil {
				b.Fatal(err)
			}
			// Prime: one multiply so partial products sit in the cache.
			jobs := matrix.IterationJobs(cfg, cfg.VPath(), "/mv/temp_V_1", 0)
			if _, err := c.M3R.Submit(jobs[0]); err != nil {
				b.Fatal(err)
			}
			primed := c.Stats.Get(sim.RemoteBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job := matrix.SumJob(cfg, fmt.Sprintf("/mv/temp_partials_%d", 0), fmt.Sprintf("/mv/temp_sum_%d", i))
				if variant.partitioner != "" {
					job.SetPartitionerClass(variant.partitioner)
				}
				if _, err := c.M3R.Submit(job); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Stats.Get(sim.RemoteBytes)-primed)/float64(b.N)/1024, "remoteKB/op")
		})
	}
}

// BenchmarkAblation_Dedup: the broadcast-heavy multiply job with the
// de-duplicating serializer on and off (§3.2.2.3).
func BenchmarkAblation_Dedup(b *testing.B) {
	for _, variant := range []struct {
		name  string
		dedup bool
	}{{"on", true}, {"off", false}} {
		b.Run(variant.name, func(b *testing.B) {
			c := newBenchCluster(b)
			// More block rows than places, so each place hosts several
			// partitions and the broadcast sends duplicate V blocks to
			// the same destination — the case dedup elides (§3.2.2.3).
			cfg := matrix.Config{
				RowBlocks: 3 * benchNodes, ColBlocks: 3 * benchNodes, BlockSize: 100,
				Sparsity: 0.01, Partitions: 3 * benchNodes, Dir: "/mv", Seed: 7,
			}
			if err := matrix.Generate(c.FS, cfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job := matrix.MultiplyJob(cfg, cfg.GPath(), cfg.VPath(), fmt.Sprintf("/mv/temp_p%d", i))
				job.SetBool(conf.KeyM3RDedup, variant.dedup)
				if _, err := c.M3R.Submit(job); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Stats.Get(sim.RemoteBytes))/float64(b.N)/1024, "remoteKB/op")
		})
	}
}

// BenchmarkAblation_Cache: the same job re-run with the input/output cache
// on vs off (§3.2.1).
func BenchmarkAblation_Cache(b *testing.B) {
	for _, variant := range []struct {
		name    string
		enabled bool
	}{{"on", true}, {"off", false}} {
		b.Run(variant.name, func(b *testing.B) {
			c := newBenchCluster(b)
			if err := wordcount.Generate(c.FS, "/data/t", 1<<20, 42); err != nil {
				b.Fatal(err)
			}
			// Warm once so "on" measures steady-state hits.
			warm := wordcount.NewJob("/data/t", "/out/warm", benchNodes, true)
			warm.SetBool(conf.KeyM3RCache, variant.enabled)
			if _, err := c.M3R.Submit(warm); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job := wordcount.NewJob("/data/t", fmt.Sprintf("/out/%d", i), benchNodes, true)
				job.SetBool(conf.KeyM3RCache, variant.enabled)
				if _, err := c.M3R.Submit(job); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Stats.Get(sim.HDFSReadBytes))/float64(b.N)/1024, "hdfsReadKB/op")
		})
	}
}

// BenchmarkCacheBudgetPageRank: the budgeted inter-job cache's ceiling vs
// the paper's unbounded heap cache on the iterative PageRank sequence (9
// jobs per op). The 64 KiB per-place budget sits below the working set, so
// cold entries tier out to disk in the spill format and readmit when the
// post-job temp drops free budget — the fixed-memory-ceiling mode for
// arbitrarily long job sequences, byte-identical in output to unbounded.
func BenchmarkCacheBudgetPageRank(b *testing.B) {
	cfg := sysml.PageRankConfig{
		Nodes: 200, BlockSize: 50, Sparsity: 0.05, Iterations: 3, Seed: 21,
	}
	for _, variant := range []struct {
		name   string
		budget int64
	}{{"unbounded", -1}, {"budget64k", 64 << 10}} {
		b.Run(variant.name, func(b *testing.B) {
			c, err := lab.New(lab.Options{
				Nodes: benchNodes, Dir: b.TempDir(),
				CacheBudgetBytes: variant.budget,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := sysml.NewDriver(c.M3R, fmt.Sprintf("/pr%d", i), benchNodes)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sysml.PageRank(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.M3R.CacheSpilledEntries())/float64(b.N), "spilled/op")
			b.ReportMetric(float64(c.M3R.CacheReadmittedEntries())/float64(b.N), "readmitted/op")
			b.ReportMetric(float64(c.M3R.CacheResidentBytes())/1024, "residentKB")
		})
	}
}
