package m3r

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/sim"
	"m3r/internal/spill"
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
	defer func() {
		span := j.Begin(engine.PhaseCleanup, 0)
		x.cleanup()
		span.End()
	}()
	span := j.Begin(engine.PhasePlan, 0)
	assignments, err := x.plan()
	span.End()
	if err != nil {
		return nil, err
	}
	report, err := j.Run(func() error { return x.run(assignments) })
	if err != nil {
		return x.rollback(userJob, report, fmt.Errorf("m3r: %s: %w", j.ID, err))
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
	x.classes.MapOutputClasses = j.Resolved.MapOutput
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
// (§5.3 integrated mode), whose real files no stale entry now shadows;
// otherwise the failed job's report goes back with its error.
func (x *jobExec) rollback(userJob *conf.JobConf, report *engine.Report, err error) (*engine.Report, error) {
	e := x.e
	x.cleanup()
	if out := x.Conf.OutputPath(); out != "" {
		e.cache.Drop(out)
	}
	if x.Lifecycle.Err() == nil && x.Conf.GetBool(conf.KeyM3RFailover, false) && e.fallback != nil {
		return e.failover(userJob, x.Lifecycle, err)
	}
	return report, err
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

	// Plan: one input per reduce partition, at its stable place, and one
	// assignment per map task.
	parts []*partitionInput
	maps  []mapAssignment

	// Map, a job that shuffles: the planned tasks' collector state, row i
	// map task i's (layOutCollectors) — P buffers a task, R parts a task on
	// an unbudgeted job, R combine tables a task when the job combines by
	// hash.
	collectParts  []collectPart
	collectBufs   []*spill.Buffer
	collectTables []*engine.CombineTable
	arena         pairArena // an unbudgeted job's small runs

	// Reduce, an unbudgeted job: its merges, partition q's in room q, of at
	// most one run a planned map task, laid out at the barrier
	// (layOutMerges).
	merges engine.PairMerges

	// Task output: the output tasks' sinks, map task i's on a map-only job,
	// reduce task q's otherwise (layOutSinks).
	sinks []taskSink

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
	classes       runClasses // the declared map-output classes
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
	x      *jobExec
	index  int
	split  formats.InputSplit
	place  int
	cached []CachedRange
	hit    bool
	// splitPath is the split's store path in the input cache, "" when the
	// split bypasses the cache (§4.2.1).
	splitPath string
	// sc is the task's shuffle collector (newShuffleCollector).
	sc shuffleCollector
}

// plan computes the job's splits and assigns each to a place: cache blocks
// pin cached splits (§3.2.1), PlacedSplits pin to their partition's stable
// place (§4.3), HDFS locality pins file splits, and everything else
// round-robins. Reduce partitions get their inputs here too, each at the
// place the stable mapping gives it. The assignments, the partitions, their
// run lists, every hit's cached ranges and the splits' store paths are one
// slice or one chunk each for the job.
func (x *jobExec) plan() ([]mapAssignment, error) {
	e := x.e
	P := e.rt.NumPlaces()
	splits, err := x.Resolved.InputFormat.GetSplits(x.Conf, P*2)
	if err != nil {
		return nil, err
	}
	R, N := x.Resolved.NumReducers, len(splits)
	x.LayOutTasks(N, R)
	parts := make([]partitionInput, R)
	x.parts = make([]*partitionInput, R)
	// A partition receives at most one run from each map task: its run list
	// is its share of one slice, at that length.
	runs := make([]*sourceRun, R*N)
	for q := range parts {
		parts[q] = partitionInput{x: x, index: q, place: e.PlaceOfPartition(q), runs: runs[q*N : q*N : (q+1)*N]}
		x.parts[q] = &parts[q]
	}
	rr := 0
	out := make([]mapAssignment, N)
	x.maps = out
	x.layOutCollectors(N, R, P)
	if x.Resolved.MapOnly {
		x.layOutSinks(N)
	} else {
		x.layOutSinks(R)
	}
	var ranges []CachedRange
	var keys engine.Strings
	if x.cacheEnabled && N > 0 {
		keys.Grow(N * splitKeyLen(splits[0]))
	}
	for i, s := range splits {
		a := &out[i]
		a.x, a.index, a.split = x, i, s
		if x.cacheEnabled {
			if sp, view, ok := splitKey(e.cfs, s, &keys); ok {
				a.splitPath = sp
				var file *fileSplitView
				if view.path != "" {
					file = &view
				}
				n := len(ranges)
				var hit bool
				if ranges, hit = e.cache.lookupSplit(ranges, sp, file); hit && len(ranges) > n {
					a.cached, a.hit = ranges[n:len(ranges):len(ranges)], true
					a.place = a.cached[0].Block.Place
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

// planned reports whether a is the plan's assignment of its task, whose
// state is its row of the job's layout.
func (x *jobExec) planned(a *mapAssignment) bool {
	return a.index < len(x.maps) && a == &x.maps[a.index]
}

// layOutCollectors lays out the collector state of a job's n map tasks
// over r partitions and p places, one array each, when the job shuffles.
func (x *jobExec) layOutCollectors(n, r, p int) {
	if x.Resolved.MapOnly {
		return
	}
	x.collectBufs = make([]*spill.Buffer, n*p)
	if x.budgets == nil {
		x.collectParts = make([]collectPart, n*r)
	}
	if x.Resolved.CombineByHash {
		x.collectTables = make([]*engine.CombineTable, n*r)
	}
}

// layOutMerges lays out an unbudgeted job's reduce merges, one a partition
// of up to one run a map task, before its reduce tasks start.
func (x *jobExec) layOutMerges() {
	if x.budgets == nil {
		x.merges.LayOut(len(x.parts), len(x.maps), x.Resolved.SortCmp, x.Lifecycle)
	}
}

// Run is the assigned map task, at its place: the work the map phase's
// x10.Finish spawns for it.
func (a *mapAssignment) Run() error {
	x := a.x
	var err error
	x.e.rt.At(a.place, func() {
		err = x.RunTask(engine.MapTask, a.index, 0, a.place, a.split, func(ctx *engine.TaskContext) error {
			return x.runMapTask(ctx, a)
		})
	})
	return err
}

// splitKey resolves a split's cache identity by formats.SplitName's rules —
// a FileSplit, a NamedSplit, a DelegatingSplit's delegate — as its store
// path (splitPath of its name, built without the name) and, for a
// FileSplit, the cache's view of it (the zero view for any other split).
// ok=false means the split bypasses the cache (§4.2.1). A FileSplit's path is
// cut from keys.
func splitKey(fs dfs.FileSystem, s formats.InputSplit, keys *engine.Strings) (sp string, view fileSplitView, ok bool) {
	for {
		switch t := s.(type) {
		case *formats.FileSplit:
			var buf [128]byte
			b := append(append(append(buf[:0], splitsRoot...), t.Path...), '/')
			b = strconv.AppendInt(b, t.Start, 10)
			b = strconv.AppendInt(append(b, '+'), t.Len, 10)
			return dfs.CleanPath(keys.Cut(b)), fileSplitViewOf(fs, t), true
		case formats.NamedSplit:
			return splitPath(t.GetName()), fileSplitView{}, true
		case formats.DelegatingSplit:
			s = t.GetDelegate()
		default:
			return "", fileSplitView{}, false
		}
	}
}

// splitKeyLen is the length of a FileSplit's store path as splitKey builds
// it, and a guess for any other split: what plan sizes the chunk of its
// splits' paths by, from its first split, with two bytes to spare for the
// digits of the others.
func splitKeyLen(s formats.InputSplit) int {
	for {
		switch t := s.(type) {
		case *formats.FileSplit:
			var buf [40]byte
			n := len(strconv.AppendInt(strconv.AppendInt(buf[:0], t.Start, 10), t.Len, 10))
			return len(splitsRoot) + len(t.Path) + 1 + 1 + n + 2
		case formats.DelegatingSplit:
			s = t.GetDelegate()
		default:
			return 64
		}
	}
}

// fileSplitViewOf builds the cache's view of a FileSplit. The file's size
// is the split's own record of it, when the split has one.
func fileSplitViewOf(fs dfs.FileSystem, f *formats.FileSplit) fileSplitView {
	v := fileSplitView{path: dfs.CleanPath(f.Path), start: f.Start, length: f.Len}
	if f.FileSize > 0 {
		v.wholeFile = f.Start == 0 && f.Len == f.FileSize
	} else if st, err := fs.Stat(v.path); err == nil {
		v.wholeFile = f.Start == 0 && f.Len == st.Size
	}
	return v
}

// run executes the map phase, then the reduce phase, across all places.
// §5.1's "no reducer is allowed to run until globally all shuffle messages
// have been sent" is the map phase's finish: no reduce task is spawned
// until every map task has returned. Each task runs at its own place,
// whose worker slots bound how many run at once (Runtime.At).
func (x *jobExec) run(assignments []mapAssignment) error {
	fin := x10.NewFinish()
	for i := range assignments {
		fin.AsyncTask(&assignments[i])
	}
	if err := fin.Wait(); err != nil || x.Resolved.MapOnly {
		return err
	}
	if err := x.Lifecycle.Err(); err != nil {
		return err
	}
	// No map task can contend the budget any more, so the largest-first
	// policy has no more victims to pick: drop each place's eviction index
	// so it stops pinning detached runs' pairs for the reduce phase.
	span := x.Begin(engine.PhaseBarrier, 0)
	for p := range x.resident {
		x.resident[p].Close()
		if err := x.checkResidentBytes(p); err != nil {
			span.End()
			return err
		}
	}
	x.layOutMerges()
	span.End()
	// Reduce phase: each partition runs at the place the stable mapping
	// assigns it (§3.2.2.2).
	fin = x10.NewFinish()
	for _, pi := range x.parts {
		fin.AsyncTask(pi)
	}
	return fin.Wait()
}
