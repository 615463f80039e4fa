// m3rbench regenerates every figure of the paper's evaluation (§6) on the
// simulated cluster: for each experiment it prints the same series the
// paper plots, with engine wall-clock times in seconds. Absolute numbers
// are scaled (see "How sizes were chosen" in benchmark/README.md); the
// shapes — who wins, by what factor, what is flat and what is linear — are
// the reproduction target.
//
// Usage:
//
//	go run ./cmd/m3rbench -fig all
//	go run ./cmd/m3rbench -fig 7 -nodes 8
//	go run ./cmd/m3rbench -fig 6 -quick
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"m3r/internal/conf"
	"m3r/internal/engine"
	"m3r/internal/lab"
	"m3r/internal/matrix"
	"m3r/internal/microbench"
	"m3r/internal/sim"
	"m3r/internal/sysml"
	"m3r/internal/wordcount"
)

var (
	fig   = flag.String("fig", "all", "which figure to regenerate: 6, 7, 8, 9, 10, 11, repart, ablate, all")
	nodes = flag.Int("nodes", 4, "simulated cluster size")
	quick = flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
)

func main() {
	flag.Parse()
	if flag.NArg() != 0 {
		// flag stops at the first non-flag, so every flag after it would be
		// silently ignored.
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	runs := map[string]func(){
		"6":      fig6,
		"7":      fig7,
		"8":      fig8,
		"9":      fig9,
		"10":     fig10,
		"11":     fig11,
		"repart": repart,
		"ablate": ablate,
	}
	if *fig == "all" {
		for _, k := range []string{"6", "repart", "7", "8", "9", "10", "11", "ablate"} {
			runs[k]()
		}
		return
	}
	f, ok := runs[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -fig %q\n", *fig)
		os.Exit(2)
	}
	f()
}

func newCluster() *lab.Cluster {
	c, err := lab.New(lab.Options{Nodes: *nodes})
	if err != nil {
		log.Fatalf("building cluster: %v", err)
	}
	return c
}

func secs(d time.Duration) string { return fmt.Sprintf("%8.3f", d.Seconds()) }

// fig6: the shuffle microbenchmark — running time vs remote %, three
// iterations, both engines.
func fig6() {
	fmt.Println("\n== Figure 6: shuffle microbenchmark (seconds per iteration) ==")
	fmt.Println("remote%  engine    iter1    iter2    iter3")
	ratios := []int{0, 20, 40, 60, 80, 100}
	pairs, valBytes := 3000, 2048
	if *quick {
		ratios = []int{0, 50, 100}
		pairs = 800
	}
	for _, pct := range ratios {
		c := newCluster()
		for _, eng := range []engine.Engine{c.Hadoop, c.M3R} {
			cfg := microbench.Config{
				Pairs: pairs, ValueBytes: valBytes, Percent: pct,
				Iterations: 3, Partitions: *nodes,
				Dir:  fmt.Sprintf("/micro-%s-%d", eng.Name(), pct),
				Seed: 1,
			}
			if err := microbench.Generate(c.FS, cfg); err != nil {
				log.Fatal(err)
			}
			reports, err := microbench.Run(eng, cfg)
			if err != nil {
				log.Fatalf("fig6 %s %d%%: %v", eng.Name(), pct, err)
			}
			fmt.Printf("%6d   %-7s", pct, eng.Name())
			for _, r := range reports {
				fmt.Print(secs(r.Wall))
			}
			fmt.Println()
		}
		c.Close()
	}
}

// repart: §6.1.1 — the one-off repartitioning cost vs a post-repartition
// iteration.
func repart() {
	fmt.Println("\n== §6.1.1: repartitioning foreign data (one-off) ==")
	c := newCluster()
	defer c.Close()
	cfg := microbench.Config{
		Pairs: 3000, ValueBytes: 2048, Percent: 0,
		Iterations: 1, Partitions: *nodes, Dir: "/mb", Seed: 1,
	}
	if *quick {
		cfg.Pairs = 800
	}
	if err := microbench.GenerateUnaligned(c.FS, cfg, "/mb/foreign"); err != nil {
		log.Fatal(err)
	}
	before := c.Stats.Snapshot()
	rep, err := c.M3R.Submit(cfg.RepartitionJob("/mb/foreign", "/mb/input"))
	if err != nil {
		log.Fatal(err)
	}
	d := sim.Delta(before, c.Stats.Snapshot())
	fmt.Printf("repartition job: %ss, %d KB shuffled remotely\n", secs(rep.Wall), d[sim.RemoteBytes]>>10)
	before = c.Stats.Snapshot()
	reports, err := microbench.Run(c.M3R, cfg)
	if err != nil {
		log.Fatal(err)
	}
	d = sim.Delta(before, c.Stats.Snapshot())
	fmt.Printf("0%%-remote iteration after repartition: %ss, %d bytes shuffled remotely\n",
		secs(reports[0].Wall), d[sim.RemoteBytes])
}

// fig7: hand-written sparse matrix × dense vector — running time vs rows.
func fig7() {
	fmt.Println("\n== Figure 7: sparse matrix × dense vector, 3 iterations (seconds total) ==")
	fmt.Println("rows     hadoop     m3r    speedup")
	sizes := []int{2, 4, 8, 12}
	if *quick {
		sizes = []int{2, 4}
	}
	const blockSize = 100
	for _, rb := range sizes {
		row := fmt.Sprintf("%-6d", rb*blockSize)
		var hSecs, mSecs float64
		for _, which := range []string{"hadoop", "m3r"} {
			c := newCluster()
			eng := engine.Engine(c.Hadoop)
			if which == "m3r" {
				eng = c.M3R
			}
			cfg := matrix.Config{
				RowBlocks: rb, ColBlocks: rb, BlockSize: blockSize,
				Sparsity: 0.01, Partitions: *nodes,
				Dir: "/mv", Seed: 7,
			}
			if err := matrix.Generate(c.FS, cfg); err != nil {
				log.Fatal(err)
			}
			_, reports, err := matrix.RunIterations(eng, cfg, 3)
			if err != nil {
				log.Fatalf("fig7 %s rows=%d: %v", which, rb*blockSize, err)
			}
			var total float64
			for _, r := range reports {
				total += r.Wall.Seconds()
			}
			if which == "hadoop" {
				hSecs = total
			} else {
				mSecs = total
			}
			c.Close()
		}
		fmt.Printf("%s %8.3f %8.3f %8.1fx\n", row, hSecs, mSecs, hSecs/mSecs)
	}
}

// fig8: WordCount — running time vs input size, three series: Hadoop with
// the reusing mapper, Hadoop with the allocating (ImmutableOutput-ready)
// mapper, and M3R.
func fig8() {
	fmt.Println("\n== Figure 8: WordCount (seconds) ==")
	fmt.Println("MB    hadoop-reuse  hadoop-new     m3r")
	sizes := []int64{1, 2, 4, 8}
	if *quick {
		sizes = []int64{1, 2}
	}
	for _, mb := range sizes {
		var cols []float64
		for _, series := range []struct {
			m3r       bool
			immutable bool
		}{
			{false, false}, // Hadoop re-use TextWritable
			{false, true},  // Hadoop new TextWritable()
			{true, true},   // M3R (ImmutableOutput variant)
		} {
			c := newCluster()
			if err := wordcount.Generate(c.FS, "/data/t", mb<<20, 42); err != nil {
				log.Fatal(err)
			}
			eng := engine.Engine(c.Hadoop)
			if series.m3r {
				eng = c.M3R
			}
			rep, err := eng.Submit(wordcount.NewJob("/data/t", "/out/w", *nodes, series.immutable))
			if err != nil {
				log.Fatalf("fig8: %v", err)
			}
			cols = append(cols, rep.Wall.Seconds())
			c.Close()
		}
		fmt.Printf("%-4d %10.3f %12.3f %10.3f\n", mb, cols[0], cols[1], cols[2])
	}
}

// sysmlRow runs one SystemML-style algorithm on both engines and prints a
// table row: size, hadoop seconds, m3r seconds, speedup.
func sysmlRow(size int, run func(d *sysml.Driver) error) {
	var hSecs, mSecs float64
	for _, which := range []string{"hadoop", "m3r"} {
		c := newCluster()
		eng := engine.Engine(c.Hadoop)
		if which == "m3r" {
			eng = c.M3R
		}
		d, err := sysml.NewDriver(eng, "/sysml", *nodes)
		if err != nil {
			log.Fatal(err)
		}
		if err := run(d); err != nil {
			log.Fatalf("sysml %s size=%d: %v", which, size, err)
		}
		var total float64
		for _, r := range d.Reports {
			total += r.Wall.Seconds()
		}
		if which == "hadoop" {
			hSecs = total
		} else {
			mSecs = total
		}
		c.Close()
	}
	fmt.Printf("%-7d %8.3f %8.3f %8.1fx\n", size, hSecs, mSecs, hSecs/mSecs)
}

// fig9: SystemML GNMF — running time vs rows.
func fig9() {
	fmt.Println("\n== Figure 9: SystemML GNMF, 2 iterations (seconds total) ==")
	fmt.Println("rows     hadoop     m3r    speedup")
	sizes := []int32{200, 400, 800}
	if *quick {
		sizes = []int32{200}
	}
	for _, rows := range sizes {
		cfg := sysml.GNMFConfig{
			Rows: rows, Cols: 200, Rank: 10, BlockSize: 100,
			Sparsity: 0.01, Iterations: 2, Seed: 41,
		}
		sysmlRow(int(rows), func(d *sysml.Driver) error {
			_, _, err := sysml.GNMF(d, cfg)
			return err
		})
	}
}

// fig10: SystemML linear regression — running time vs sample points.
func fig10() {
	fmt.Println("\n== Figure 10: SystemML linear regression (CG), 2 iterations (seconds total) ==")
	fmt.Println("points   hadoop     m3r    speedup")
	sizes := []int32{200, 400, 800}
	if *quick {
		sizes = []int32{200}
	}
	for _, pts := range sizes {
		cfg := sysml.LinRegConfig{
			Points: pts, Vars: 100, BlockSize: 100, Iterations: 2, Seed: 31,
		}
		sysmlRow(int(pts), func(d *sysml.Driver) error {
			_, err := sysml.LinReg(d, cfg)
			return err
		})
	}
}

// fig11: SystemML PageRank — running time vs graph size.
func fig11() {
	fmt.Println("\n== Figure 11: SystemML PageRank, 3 iterations (seconds total) ==")
	fmt.Println("nodes    hadoop     m3r    speedup")
	sizes := []int32{200, 400, 800}
	if *quick {
		sizes = []int32{200}
	}
	for _, n := range sizes {
		cfg := sysml.PageRankConfig{
			Nodes: n, BlockSize: 100, Sparsity: 0.01, Iterations: 3, Seed: 21,
		}
		sysmlRow(int(n), func(d *sysml.Driver) error {
			_, err := sysml.PageRank(d, cfg)
			return err
		})
	}
}

// ablate isolates each M3R mechanism the paper credits for its gains.
func ablate() {
	fmt.Println("\n== Ablations: one M3R mechanism at a time ==")

	// ImmutableOutput: cloning cost on the shuffle (§4.1, Fig. 4).
	{
		c := newCluster()
		if err := wordcount.Generate(c.FS, "/data/t", 2<<20, 42); err != nil {
			log.Fatal(err)
		}
		repMut, err := c.M3R.Submit(wordcount.NewJob("/data/t", "/out/mut", *nodes, false))
		if err != nil {
			log.Fatal(err)
		}
		repImm, err := c.M3R.Submit(wordcount.NewJob("/data/t", "/out/imm", *nodes, true))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ImmutableOutput (wordcount on M3R): mutating %ss  immutable %ss\n",
			secs(repMut.Wall), secs(repImm.Wall))
		c.Close()
	}

	// Partition stability: the matvec sum job under the row partitioner
	// (stable) vs the default hash partitioner (unstable).
	{
		c := newCluster()
		cfg := matrix.Config{
			RowBlocks: 8, ColBlocks: 8, BlockSize: 100, Sparsity: 0.01,
			Partitions: *nodes, Dir: "/mv", Seed: 7,
		}
		if err := matrix.Generate(c.FS, cfg); err != nil {
			log.Fatal(err)
		}
		jobs := matrix.IterationJobs(cfg, cfg.VPath(), cfg.Dir+"/temp_V_1", 0)
		if _, err := c.M3R.Submit(jobs[0]); err != nil {
			log.Fatal(err)
		}
		before := c.Stats.Snapshot()
		if _, err := c.M3R.Submit(jobs[1]); err != nil {
			log.Fatal(err)
		}
		stable := sim.Delta(before, c.Stats.Snapshot())[sim.RemoteBytes]

		jobs2 := matrix.IterationJobs(cfg, cfg.Dir+"/temp_V_1", cfg.Dir+"/temp_V_2", 1)
		jobs2[1].SetPartitionerClass("org.apache.hadoop.mapred.lib.HashPartitioner")
		if _, err := c.M3R.Submit(jobs2[0]); err != nil {
			log.Fatal(err)
		}
		before = c.Stats.Snapshot()
		if _, err := c.M3R.Submit(jobs2[1]); err != nil {
			log.Fatal(err)
		}
		unstable := sim.Delta(before, c.Stats.Snapshot())[sim.RemoteBytes]
		fmt.Printf("Partition stability (matvec sum job remote bytes): row partitioner %d  hash partitioner %d\n",
			stable, unstable)
		c.Close()
	}

	// Cache: repeated wordcount with the cache on vs off.
	{
		c := newCluster()
		if err := wordcount.Generate(c.FS, "/data/t", 2<<20, 42); err != nil {
			log.Fatal(err)
		}
		if _, err := c.M3R.Submit(wordcount.NewJob("/data/t", "/out/warm", *nodes, true)); err != nil {
			log.Fatal(err)
		}
		repOn, err := c.M3R.Submit(wordcount.NewJob("/data/t", "/out/on", *nodes, true))
		if err != nil {
			log.Fatal(err)
		}
		off := wordcount.NewJob("/data/t", "/out/off", *nodes, true)
		off.SetBool(conf.KeyM3RCache, false)
		repOff, err := c.M3R.Submit(off)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Cache (warm rerun on M3R): cache on %ss  cache off %ss\n",
			secs(repOn.Wall), secs(repOff.Wall))
		c.Close()
	}

	// De-duplication: the broadcast-heavy matvec multiply job with the
	// dedup serializer on vs off.
	{
		var bytesOn, bytesOff int64
		for _, dedup := range []bool{true, false} {
			c := newCluster()
			cfg := matrix.Config{
				RowBlocks: 8, ColBlocks: 8, BlockSize: 100, Sparsity: 0.01,
				Partitions: *nodes, Dir: "/mv", Seed: 7,
			}
			if err := matrix.Generate(c.FS, cfg); err != nil {
				log.Fatal(err)
			}
			job := matrix.MultiplyJob(cfg, cfg.GPath(), cfg.VPath(), "/mv/temp_p")
			job.SetBool(conf.KeyM3RDedup, dedup)
			before := c.Stats.Snapshot()
			if _, err := c.M3R.Submit(job); err != nil {
				log.Fatal(err)
			}
			n := sim.Delta(before, c.Stats.Snapshot())[sim.RemoteBytes]
			if dedup {
				bytesOn = n
			} else {
				bytesOff = n
			}
			c.Close()
		}
		fmt.Printf("De-duplication (matvec broadcast remote bytes): dedup on %d KB  dedup off %d KB\n",
			bytesOn>>10, bytesOff>>10)
	}
}
