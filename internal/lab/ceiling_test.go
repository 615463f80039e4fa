package lab_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/lab"
	"m3r/internal/sim"
	"m3r/internal/sysml"
	"m3r/internal/testenv"
)

// pinnedEngine submits every job with the knobs the ceiling depends on set
// explicitly, so a default from the M3R_CONF_DEFAULTS carrier cannot move
// it (explicit beats carrier).
type pinnedEngine struct{ engine.Engine }

func (e pinnedEngine) Submit(job *conf.JobConf) (*engine.Report, error) {
	job.SetInt64(conf.KeyM3RShuffleBudget, 0)
	job.Set(conf.KeyM3RSpillCodec, "none")
	job.SetBool(conf.KeyM3RCache, true)
	job.SetBool(conf.KeyM3RDedup, true)
	job.SetInt(conf.KeyMaxMapAttempts, 1)
	job.SetInt(conf.KeyMaxReduceAttempts, 1)
	return e.Engine.Submit(job)
}

// pageRankRep is one rep of the benchmark's pagerank_iter sequence on d:
// MatVec then Scale per iteration, with the client's deletes in between.
func pageRankRep(d *sysml.Driver, G, p0 sysml.Mat, alpha, teleport float64, iters int) error {
	p := p0
	for it := 0; it < iters; it++ {
		gp, err := d.MatVec(G, p, fmt.Sprintf("%s/temp_gp_%d", d.Dir, it))
		if err != nil {
			return err
		}
		out := fmt.Sprintf("%s/temp_p_%d", d.Dir, it)
		if it == iters-1 {
			out = d.Dir + "/pagerank_out"
		}
		next, err := d.Scale(gp, alpha, teleport, out)
		if err != nil {
			return err
		}
		for _, path := range []string{gp.Path, p.Path} {
			if path != p0.Path && d.FS.Exists(path) {
				if err := d.FS.Delete(path, true); err != nil {
					return err
				}
			}
		}
		p = next
	}
	return nil
}

// TestPageRankSequenceAllocs is the workload ceiling of a small fixed-seed
// PageRank on M3R: 3 iterations over 400 nodes in 100-node blocks, i.e. 9
// jobs a rep. It counts what the benchmark's m3r_allocs_per_rec counts —
// mallocs over a warm rep, including the client's deletes, per map-output
// record — and also per job. GC is off inside the measured reps, so no
// cycle empties a sync.Pool between them.
//
// The ceilings are the largest value measured in 20 runs at each of
// GOMAXPROCS 1, 2 and 4 (12.67–12.80 allocs/rec, 845–853 allocs/job) plus
// the benchmark's 3 % bound, set with go1.24 on amd64 when the plan and the
// task envelope stopped allocating per split and per task. 386 is not
// pinned. A change that lowers the value lowers the ceiling; raising one is
// a change to a check.
func TestPageRankSequenceAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts rest on warm pools; the race detector drops a share of what is Put")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("ceilings are pinned on amd64, not %s", runtime.GOARCH)
	}
	const (
		nodes, block, iters = 800, 100, 5
		reps                = 12
		maxAllocsPerRec     = 13.18
		maxAllocsPerJob     = 879.0
	)
	c, err := lab.New(lab.Options{Nodes: 4, WorkersPerPlace: 1, ShuffleBudgetBytes: -1, CacheBudgetBytes: -1, Cost: sim.Zero()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := &sysml.Driver{FS: c.FS, Partitions: 4, Dir: "/pr/in"}
	G, err := in.WriteMat("G", nodes, nodes, block, block, 3, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := in.WriteMat("p0", nodes, 1, block, 1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	const alpha = 0.85
	teleport := (1 - alpha) / float64(nodes)
	rep := func() (jobs int, recs int64) {
		d, err := sysml.NewDriver(pinnedEngine{c.M3R}, "/pr/m3r", 4)
		if err != nil {
			t.Fatal(err)
		}
		if d.FS.Exists(d.Dir) {
			if err := d.FS.Delete(d.Dir, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := pageRankRep(d, G, p0, alpha, teleport, iters); err != nil {
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
