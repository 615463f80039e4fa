package m3r

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/sim"
	"m3r/internal/x10"
)

// Submit implements engine.Engine.
func (e *Engine) Submit(userJob *conf.JobConf) (*engine.Report, error) {
	return e.SubmitControlled(userJob, nil)
}

// SubmitControlled implements engine.LifecycleSubmitter: it runs the job
// under lc, so the caller (server mode's kill RPC, Shutdown's grace drain)
// can cancel it while it runs. A nil lc gets a private lifecycle — Submit
// is exactly that — which still honours the job's deadline key. The
// submission's envelope — conf, output set-up, verdict, commit — is
// engine.Job's; the steps here are what is M3R's own.
func (e *Engine) SubmitControlled(userJob *conf.JobConf, lc *engine.JobLifecycle) (*engine.Report, error) {
	if userJob.GetBool(conf.KeyForceHadoop, false) && e.fallback != nil {
		return engine.SubmitUnder(e.fallback, userJob, lc)
	}
	j, err := e.host.Open(userJob, lc)
	if err != nil {
		return nil, err
	}
	defer j.Lifecycle.Stop()
	x, err := e.newJobExec(j)
	if err != nil {
		return nil, err
	}
	defer x.cleanup()
	assignments, err := x.plan()
	if err != nil {
		return nil, err
	}
	report, err := j.Run(func() error { return x.run(assignments) })
	if err != nil {
		return x.rollback(userJob, fmt.Errorf("m3r: %s: %w", j.ID, err))
	}
	x.countCacheTiering()
	return report, nil
}

// newJobExec is the job's admission: M3R's adjustments to the resolved job
// and, when the job is budgeted, its tagged view of every place's pool.
func (e *Engine) newJobExec(j *engine.Job) (*jobExec, error) {
	job := j.Conf
	if files := job.Get(conf.KeyDistributedCacheFiles); files != "" {
		// In-memory places read the distributed cache straight from the
		// filesystem; expose the standard task-side key.
		job.Set(conf.KeyDistributedCacheLocalFiles, files)
	}
	// §4.1: swap Hadoop's reusing default runner for the fresh-allocating,
	// ImmutableOutput-marked one.
	j.Resolved.SubstituteImmutableRunner()
	x := &jobExec{
		e:             e,
		Job:           j,
		temp:          job.OutputPath() != "" && !j.WritesOutput(),
		cacheEnabled:  job.GetBool(conf.KeyM3RCache, true),
		dedup:         job.GetBool(conf.KeyM3RDedup, true),
		shuffleBudget: job.GetInt64(conf.KeyM3RShuffleBudget, 0),
	}
	// Budgeted-cache tiering counters are per-job deltas of the store's
	// engine-lifetime totals; snapshot before planning (a cache lookup can
	// already readmit a spilled entry).
	x.cacheSpilled0 = e.cache.store.SpilledBlocks()
	x.cacheReadmitted0 = e.cache.store.ReadmittedBlocks()
	// Budget admission: a job with a positive per-job key is budgeted, capped
	// within the engine pool; one without the key is budgeted when the pool
	// has a limit; an explicit non-positive key opts the job out.
	capSet := job.Has(conf.KeyM3RShuffleBudget)
	if (capSet && x.shuffleBudget > 0) || (!capSet && e.pools[0].Limit() < math.MaxInt64) {
		var err error
		if x.classes, err = declaredRunClasses(j.Resolved); err != nil {
			return nil, err
		}
		x.budgets = make([]*engine.JobBudget, e.rt.NumPlaces())
		x.resident = make([]*engine.ResidentIndex[residentRun], e.rt.NumPlaces())
		for p := range x.budgets {
			x.budgets[p] = e.pools[p].Job(j.ID, x.shuffleBudget)
			x.resident[p] = engine.NewResidentIndex[residentRun]()
		}
	}
	return x, nil
}

// countCacheTiering reports a committed job's share of the budgeted cache's
// tiering in its counters.
func (x *jobExec) countCacheTiering() {
	st := x.e.cache.store
	if !st.Budgeted() {
		return
	}
	x.Counters.Find(counters.M3RGroup, counters.CacheResidentBytes).SetValue(st.ResidentBytes())
	x.Counters.Find(counters.M3RGroup, counters.CacheSpilledEntries).SetValue(st.SpilledBlocks() - x.cacheSpilled0)
	x.Counters.Find(counters.M3RGroup, counters.CacheReadmittedEntries).SetValue(st.ReadmittedBlocks() - x.cacheReadmitted0)
}

// rollback undoes a job that failed, in any phase or at its commit. The
// envelope has aborted the committer; what is left is M3R's own: the pool
// reservations drain now (cleanup is idempotent; the deferred call becomes a
// no-op), and the output leaves the cache — reduce tasks that finished before
// the failure already closed their entries there, the job's output never
// becomes visible, so those must not either, or a later job would read as a
// cache hit output that was never committed (§3.2.1); dropping them also
// returns their cache-pool reservations. Then, when the job asks for it
// (m3r.job.failover) and was not cancelled, it reruns on the resilient engine
// (§5.3 integrated mode), whose real files no stale entry now shadows.
func (x *jobExec) rollback(userJob *conf.JobConf, err error) (*engine.Report, error) {
	e := x.e
	x.cleanup()
	if out := x.Conf.OutputPath(); out != "" {
		e.cache.Drop(out)
	}
	if x.Lifecycle.Err() == nil && x.Conf.GetBool(conf.KeyM3RFailover, false) && e.fallback != nil {
		return e.failover(userJob, x.Lifecycle, err)
	}
	return nil, err
}

// failover reruns a failed job on the fallback engine (m3r.job.failover).
// The caller has already rolled this attempt back. The fallback run stays
// under the same lifecycle, so a kill still reaches it; its report gains
// FAILOVER_JOBS so the rerun is visible to the submitter.
func (e *Engine) failover(userJob *conf.JobConf, lc *engine.JobLifecycle, m3rErr error) (*engine.Report, error) {
	e.Stats().Add(sim.FailoverJobs, 1)
	rep, err := engine.SubmitUnder(e.fallback, userJob, lc)
	if err != nil {
		// Both engines failed; the fallback's error wraps the original so
		// neither verdict is lost.
		return nil, fmt.Errorf("%w (after failover: %v)", err, m3rErr)
	}
	rep.Counters.Incr(counters.JobGroup, counters.FailoverJobs, 1)
	return rep, nil
}

// jobExec is the state of one executing job: its envelope and what is M3R's
// own.
type jobExec struct {
	e *Engine
	*engine.Job

	// Admission (newJobExec) and the report: the cache store's totals at
	// admission make the job's tiering counters deltas.
	cacheSpilled0, cacheReadmitted0 int64

	// Plan: one input per reduce partition, at its stable place.
	parts []*partitionInput

	// Map: whether splits are read through (and into) the cache, and whether
	// remote pairs are de-duplicated on the wire.
	cacheEnabled bool
	dedup        bool

	// Task output, map-only and reduce: the output is cache-only (§4.2.3;
	// Job.WritesOutput is false).
	temp bool

	// Shuffle, map side to merge open: its memory lifecycle
	// (conf.KeyM3RShuffleBudget, a cap within the engine pool of
	// conf.KeyM3REngineShuffleBudget). When the job is budgeted, its shuffle runs
	// are bytes from collect to merge (frame.go) and each place accounts its
	// resident runs — sorted segments in the shared spill record format
	// (internal/spill) — against budgets[place], the job's tagged view of the
	// place's pool. Runs that cannot be admitted go to disk through the spill
	// codec and re-enter the merge as the resident ones do, as raw records
	// (engine.RawMerge). Under contention the largest-first policy may instead
	// re-spill a larger cold resident run (tracked per place in resident) to keep
	// the smaller newcomer in memory. The reservations release incrementally as
	// reduce tasks drain resident runs. Unbudgeted jobs (an unlimited pool and no
	// per-job budget, or an explicit non-positive per-job budget) skip all of it
	// and shuffle objects: the paper's pure in-memory design point.
	shuffleBudget int64
	budgets       []*engine.JobBudget
	resident      []*engine.ResidentIndex[residentRun]
	classes       runClasses // the declared map-output classes of a budgeted job
	spillMu       sync.Mutex
	spillDir      string
	spillSeq      atomic.Int64
}

// spillPath returns a fresh file path for one spilled run, creating the
// job's spill directory on first use.
func (x *jobExec) spillPath() (string, error) {
	x.spillMu.Lock()
	defer x.spillMu.Unlock()
	if x.spillDir == "" {
		d, err := os.MkdirTemp("", "m3r-spill-"+x.ID+"-")
		if err != nil {
			return "", err
		}
		x.spillDir = d
	}
	return filepath.Join(x.spillDir, fmt.Sprintf("run_%06d", x.spillSeq.Add(1))), nil
}

// cleanup runs at job end (success or failure): the job's budget
// reservations return to the pool, then the spill directory goes. The
// budget drain is the pool's end-of-job guarantee: a job that failed
// mid-shuffle (installed runs whose reducers never ran) must still hand
// every byte back, or a long-lived engine's shared pool would bleed
// capacity on every failure. On the success path the releasing readers
// already returned everything and the drain is a no-op. All task goroutines
// are joined before Submit's deferred cleanup runs, so no release can race
// the drain.
func (x *jobExec) cleanup() {
	for _, jb := range x.budgets {
		jb.Drain()
	}
	x.spillMu.Lock()
	defer x.spillMu.Unlock()
	if x.spillDir != "" {
		os.RemoveAll(x.spillDir)
		x.spillDir = ""
	}
}

// mapAssignment is one planned map task.
type mapAssignment struct {
	index  int
	split  formats.InputSplit
	place  int
	cached []CachedRange
	hit    bool
}

// plan computes the job's splits and assigns each to a place: cache blocks
// pin cached splits (§3.2.1), PlacedSplits pin to their partition's stable
// place (§4.3), HDFS locality pins file splits, and everything else
// round-robins. A corrupt cache entry (blockPairs) fails the plan loudly
// instead of quietly dropping pairs from a cached split. Reduce partitions
// get their inputs here too, each at the place the stable mapping gives it.
func (x *jobExec) plan() ([]*mapAssignment, error) {
	e := x.e
	P := e.rt.NumPlaces()
	splits, err := x.Resolved.InputFormat.GetSplits(x.Conf, P*2)
	if err != nil {
		return nil, err
	}
	for q := 0; q < x.Resolved.NumReducers; q++ {
		x.parts = append(x.parts, &partitionInput{x: x, place: e.PlaceOfPartition(q)})
	}
	rr := 0
	out := make([]*mapAssignment, 0, len(splits))
	for i, s := range splits {
		a := &mapAssignment{index: i, split: s}
		out = append(out, a)
		if x.cacheEnabled {
			if name, ok := formats.SplitName(s); ok {
				ranges, hit, err := e.cache.LookupSplit(name, fileSplitViewOf(e.cfs, s))
				if err != nil {
					return nil, err
				}
				if hit && len(ranges) > 0 {
					a.cached, a.hit = ranges, true
					a.place = ranges[0].Block.Place
					continue
				}
			}
		}
		if ps, ok := s.(formats.PlacedSplit); ok && ps.Partition() >= 0 {
			a.place = e.PlaceOfPartition(ps.Partition())
			continue
		}
		placed := false
		for _, h := range s.Locations() {
			if p := e.rt.PlaceOfHost(h); p >= 0 {
				a.place = p
				placed = true
				break
			}
		}
		if !placed {
			a.place = rr % P
			rr++
		}
	}
	return out, nil
}

// fileSplitViewOf unwraps delegating splits down to a FileSplit and builds
// the cache's view of it.
func fileSplitViewOf(fs dfs.FileSystem, s formats.InputSplit) *fileSplitView {
	for {
		if d, ok := s.(formats.DelegatingSplit); ok {
			s = d.GetDelegate()
			continue
		}
		break
	}
	f, ok := s.(*formats.FileSplit)
	if !ok {
		return nil
	}
	v := &fileSplitView{path: dfs.CleanPath(f.Path), start: f.Start, length: f.Len}
	if st, err := fs.Stat(v.path); err == nil {
		v.wholeFile = f.Start == 0 && f.Len == st.Size
	}
	return v
}

// run executes the map phase, the global shuffle barrier, and the reduce
// phase across all places.
func (x *jobExec) run(assignments []*mapAssignment) error {
	e := x.e
	P := e.rt.NumPlaces()
	byPlace := make([][]*mapAssignment, P)
	for _, a := range assignments {
		byPlace[a.place] = append(byPlace[a.place], a)
	}
	team := x10.NewTeam(P)
	var mapFailed atomic.Bool
	fin := x10.NewFinish()
	for p := 0; p < P; p++ {
		p := p
		fin.Async(func() error {
			// Map phase at this place: every task occupies a worker slot.
			inner := x10.NewFinish()
			for _, a := range byPlace[p] {
				a := a
				inner.Async(func() error {
					var err error
					e.rt.At(p, func() {
						err = x.RunTask(engine.MapTask, a.index, 0, a.split, func(ctx *engine.TaskContext) error {
							return x.runMapTask(ctx, a)
						})
					})
					return err
				})
			}
			mapErr := inner.Wait()
			if mapErr != nil {
				mapFailed.Store(true)
			}
			if x.Resolved.MapOnly {
				return mapErr
			}
			// §5.1: "No reducer is allowed to run until globally all
			// shuffle messages have been sent."
			//
			// A killed job wakes the wait early: every place shares the one
			// cancel source, so whoever is parked here leaves with the
			// cancellation cause instead of waiting for places that may be
			// stuck in long map tails. (The generation is then abandoned,
			// never reused — the job is tearing down.)
			if err := team.BarrierCancel(x.Lifecycle.Done(), x.Lifecycle.Err); err != nil {
				return err
			}
			if mapErr != nil {
				return mapErr
			}
			if mapFailed.Load() {
				return nil // another place failed; the job is already lost
			}
			if err := x.Lifecycle.Err(); err != nil {
				return err
			}
			// Past the barrier no map task can contend the budget, so the
			// largest-first policy has no more victims to pick: drop the
			// eviction index so it stops pinning detached runs' pairs for
			// the rest of the reduce phase.
			if x.resident != nil {
				x.resident[p].Close()
				if err := x.checkResidentBytes(p); err != nil {
					return err
				}
			}
			// Reduce phase: this place owns the partitions the stable
			// mapping assigns to it (§3.2.2.2).
			rinner := x10.NewFinish()
			for q := 0; q < x.Resolved.NumReducers; q++ {
				if e.PlaceOfPartition(q) != p {
					continue
				}
				q := q
				rinner.Async(func() error {
					var err error
					e.rt.At(p, func() {
						err = x.RunTask(engine.ReduceTask, q, 0, nil, func(ctx *engine.TaskContext) error {
							return x.runReduceTask(ctx, q)
						})
					})
					return err
				})
			}
			return rinner.Wait()
		})
	}
	return fin.Wait()
}
