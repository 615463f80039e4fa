package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/sim"
)

// protocol fixes how many samples one run takes. The sample order is
// rounds of [m3rPerRound M3R reps, 1 Hadoop rep], so a slow phase of the
// machine lands on both engines.
type protocol struct {
	warmups     int // discarded reps per engine on the warm cluster, the first one included
	minRounds   int
	maxRounds   int
	m3rPerRound int
	colds       int // fresh clusters, each giving one cold and one set-up sample

	// The traced run. tracedPairs is the number of warm traced M3R reps,
	// each paired with an untraced rep on a second cluster. The issue
	// sized it at 4 (5 traced reps with the cold one); with 4 pairs the
	// overhead estimate moved by ±5 % from run to run, the size of the
	// limit it is held to, so it is 8.
	tracedPairs  int
	tracedHadoop int
	ladderPasses int
}

var fullProtocol = protocol{
	warmups: 3, minRounds: 10, maxRounds: 60, m3rPerRound: 4, colds: 11,
	tracedPairs: 8, tracedHadoop: 2, ladderPasses: 3,
}

// smokeProtocol exercises every step once or twice; its timings mean nothing.
var smokeProtocol = protocol{
	warmups: 1, minRounds: 1, maxRounds: 1, m3rPerRound: 2, colds: 1,
	tracedPairs: 1, tracedHadoop: 1, ladderPasses: 1,
}

// ops counts the operations of a run: every Submit, every output check,
// every shape check.
type ops struct {
	attempted int
	failed    int
	failures  []string
}

func (o *ops) check(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.failures = append(o.failures, what+": "+err.Error())
	}
}

// runner holds what the timed and the traced run share.
type runner struct {
	w       *workload
	seed    int64
	scale   int
	workDir string
	calib   *calibrator
	ops     ops

	calibs []float64 // every calibration loop's seconds, in order
}

func (r *runner) calibrate() float64 {
	c := r.calib.run()
	r.calibs = append(r.calibs, c)
	return c
}

// quiesce puts the two pieces of state a rep inherits into a known
// condition: the Go heap collected, and the file system's pending metadata
// written out. The second matters as much as the first on the build box: half
// of a Hadoop rep is kernel file work (a directory and several files per
// task), and on its journal-less ext4 creating a file gets several times
// slower while the block group holds inodes freed a short while ago, then
// fast again — a sawtooth with a period longer than a run (see markTopDir).
// How long ext4 holds a freed inode back (recently_deleted in its ialloc.c)
// depends on whether the inode table is dirty: six minutes, or one when it
// has been written out. With a sync at each round start the
// Hadoop reps of pagerank_iter ran at 0.18 s raw, spread 9 % over eight
// runs; without, at 0.26–0.39 s, spread 15–31 %.
func quiesce() {
	syscall.Sync()
	runtime.GC()
}

// settle runs the calibration loop until the process has its pages and the
// CPU its clock: the first loops of a process read two to three times
// slower than the rest, and nothing should be scaled by them.
func (r *runner) settle() {
	for i := 0; i < 12; i++ {
		r.calib.run()
	}
}

// site is one cluster with the workload prepared on it.
type site struct {
	c    *cluster
	inst *instance
}

func (r *runner) poolBytes() int64 {
	if r.w.poolBytes == nil {
		return 0
	}
	return r.w.poolBytes(r.scale)
}

func (r *runner) blockBytes() int64 {
	if r.w.blockBytes == 0 {
		return hdfsBlock
	}
	return r.w.blockBytes
}

func (r *runner) newSite(name string, cost *sim.CostModel, tr *tracer) (*site, error) {
	c, err := newCluster(filepath.Join(r.workDir, name), r.blockBytes(), r.poolBytes(), cost, tr)
	if err != nil {
		return nil, err
	}
	inst, err := r.w.prepare(c, r.seed, r.scale)
	if err != nil {
		c.close()
		return nil, fmt.Errorf("preparing %s: %w", r.w.name, err)
	}
	return &site{c: c, inst: inst}, nil
}

// rep runs one sequence on eng and counts its operations: one per Submit
// and one for the sequence's REDUCE_OUTPUT_RECORDS. A failed Submit ends
// the run — no timing after it would mean anything. The caller resets the
// engine's previous output first; that is not part of the sequence.
func (r *runner) rep(s *site, eng engine.Engine) ([]*engine.Report, float64, error) {
	start := time.Now()
	reports, err := s.inst.rep(eng)
	wall := time.Since(start).Seconds()
	r.ops.attempted += len(reports)
	if err != nil {
		r.ops.check(eng.Name()+" submit", err)
		return nil, 0, fmt.Errorf("%s on %s: %w", r.w.name, eng.Name(), err)
	}
	var countErr error
	if got := counterSum(reports, counters.TaskGroup, counters.ReduceOutputRecords); got != s.inst.reduceOutputRecs {
		countErr = fmt.Errorf("REDUCE_OUTPUT_RECORDS = %d, expected %d", got, s.inst.reduceOutputRecs)
	}
	r.ops.check(eng.Name()+" record count", countErr)
	return reports, wall, nil
}

// verify checks both engines' current outputs against the reference and
// against each other: three operations.
func (r *runner) verify(s *site, when string) {
	hd, herr := s.inst.check(s.c.hEng)
	r.ops.check(when+": hadoop output vs reference", herr)
	md, merr := s.inst.check(s.c.mEng)
	r.ops.check(when+": m3r output vs reference", merr)
	var same error
	if hd != md {
		same = fmt.Errorf("record streams differ (hadoop %.12s, m3r %.12s)", hd, md)
	}
	r.ops.check(when+": m3r output vs hadoop output", same)
}

// timed is the result of the untraced run.
type timed struct {
	m3r, hadoop, cold, setup []float64 // drift-corrected seconds
	m3rRaw, hadoopRaw        []float64 // the same samples before correction
	allocBytes, allocs       uint64    // over the warm M3R reps
	mapOutRecs               int64     // map-output records of those reps
	liveHeapMB               float64
	rounds                   int
}

// setUp builds a fresh cluster, prepares the workload and runs the first
// rep on each engine, which is what a user waits for before the sequence
// runs at its steady speed. It returns the site, the corrected set-up
// seconds and the corrected wall of the first (cold) M3R rep.
func (r *runner) setUp(name string) (*site, float64, float64, error) {
	quiesce()
	c0 := r.calibrate()
	start := time.Now()
	s, err := r.newSite(name, sim.Zero(), nil)
	if err != nil {
		return nil, 0, 0, err
	}
	built := time.Since(start).Seconds()
	c1 := r.calibrate()
	_, coldWall, err := r.rep(s, s.c.mEng)
	if err != nil {
		s.c.close()
		return nil, 0, 0, err
	}
	c2 := r.calibrate()
	_, hWall, err := r.rep(s, s.c.hEng)
	if err != nil {
		s.c.close()
		return nil, 0, 0, err
	}
	c3 := r.calibrate()
	setup := corrected(built, c0, c1) + corrected(coldWall, c1, c2) + corrected(hWall, c2, c3)
	return s, setup, corrected(coldWall, c1, c2), nil
}

// runTimed is the untraced run: colds fresh clusters for the cold and
// set-up samples, then the warm cluster's rounds until both minRounds and
// the time budget are met.
func (r *runner) runTimed(p protocol, budget time.Duration) (*timed, error) {
	t := &timed{}
	began := time.Now()
	r.settle()
	for i := 0; i < p.colds; i++ {
		s, setup, cold, err := r.setUp(fmt.Sprintf("cold%d", i))
		if err != nil {
			return nil, err
		}
		t.setup = append(t.setup, setup)
		t.cold = append(t.cold, cold)
		if err := s.c.close(); err != nil {
			return nil, err
		}
	}

	s, setup, cold, err := r.setUp("warm")
	if err != nil {
		return nil, err
	}
	defer s.c.close()
	t.setup = append(t.setup, setup)
	t.cold = append(t.cold, cold)
	r.verify(s, "first rep")
	for i := 1; i < p.warmups; i++ {
		for _, eng := range []engine.Engine{s.c.mEng, s.c.hEng} {
			if err := s.inst.reset(eng); err != nil {
				return nil, err
			}
			if _, _, err := r.rep(s, eng); err != nil {
				return nil, err
			}
		}
	}

	var ms0, ms1 runtime.MemStats
	for t.rounds < p.minRounds || (t.rounds < p.maxRounds && time.Since(began) < budget) {
		t.rounds++
		quiesce()
		before := r.calibrate()
		for i := 0; i <= p.m3rPerRound; i++ {
			eng, isM3R := s.c.mEng, i < p.m3rPerRound
			if !isM3R {
				eng = s.c.hEng
			}
			if err := s.inst.reset(eng); err != nil {
				return nil, err
			}
			if isM3R {
				runtime.ReadMemStats(&ms0)
			}
			reports, wall, err := r.rep(s, eng)
			if err != nil {
				return nil, err
			}
			if isM3R {
				runtime.ReadMemStats(&ms1)
				t.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
				t.allocs += ms1.Mallocs - ms0.Mallocs
				t.mapOutRecs += mapOutputRecs(reports)
			}
			after := r.calibrate()
			if isM3R {
				t.m3r = append(t.m3r, corrected(wall, before, after))
				t.m3rRaw = append(t.m3rRaw, wall)
			} else {
				t.hadoop = append(t.hadoop, corrected(wall, before, after))
				t.hadoopRaw = append(t.hadoopRaw, wall)
				runtime.GC()
				after = r.calibrate()
			}
			before = after
		}
	}
	r.verify(s, "last rep")

	// What M3R keeps between jobs: the cache and pool state, with the last
	// rep's output still cached, the engine open and everything else of
	// this process collected.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	t.liveHeapMB = float64(ms1.HeapAlloc) / (1 << 20)
	return t, nil
}

// newWorkDir creates the run's private directory under root. Everything
// the benchmark and the engines write — HDFS blocks, Hadoop local dirs,
// M3R spill files (through TMPDIR) — lands inside it. The directories are
// marked so that their subdirectories (the clusters, and M3R's spill
// directory per job) spread over the disk's block groups; see markTopDir.
func newWorkDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	markTopDir(root)
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return "", err
	}
	markTopDir(dir)
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	tmp := filepath.Join(abs, "tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		return "", err
	}
	markTopDir(tmp)
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return "", err
	}
	return abs, nil
}
