package m3r

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/mapred"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/wio"
	"m3r/internal/x10"
)

// Options configures an M3R engine instance.
type Options struct {
	// Backing is the filesystem under the cache (normally the simulated
	// HDFS, but M3R is filesystem-agnostic, §1). Required.
	Backing dfs.FileSystem
	// Places is the number of long-lived places (default 1), each owning
	// its share of the cache and its task slots.
	Places int
	// WorkersPerPlace bounds in-place task concurrency (default 2; the
	// paper used 8 worker threads on 8-core nodes).
	WorkersPerPlace int
	// Fallback, when set, receives jobs that request the stock Hadoop
	// engine via conf.KeyForceHadoop (§5.3 integrated mode).
	Fallback engine.Engine
	// ShuffleBudgetBytes, when positive, gives the engine a per-place
	// shuffle memory pool shared by every job of its sequence
	// (conf.KeyM3REngineShuffleBudget). Zero takes that key's
	// conf.DefaultsEnv value; negative forces no pool.
	ShuffleBudgetBytes int64
	// CacheBudgetBytes, when positive, puts the inter-job cache under a
	// per-place byte ceiling (conf.KeyM3RCacheBudget) — within the shuffle
	// pool when there is one, else in private per-place pools. Zero takes
	// that key's conf.DefaultsEnv value; negative forces the unbounded cache.
	CacheBudgetBytes int64
	// Transport moves cross-place shuffle frames; nil means the in-process
	// loopback backend. The engine's runtime takes ownership: Close closes
	// it.
	Transport x10.Transport
	// Stats and Cost may be nil.
	Stats *sim.Stats
	Cost  *sim.CostModel
}

// Engine is the M3R engine: one instance is associated with a fixed set of
// places and runs all jobs of the sequence submitted to it, keeping the
// key/value cache alive in between (§3.2). It does not recover from task
// failure — a failed task fails the job, the paper's "no resilience"
// design point.
type Engine struct {
	host     *engine.Host
	rt       *x10.Runtime
	cache    *Cache
	cfs      *CachingFileSystem
	stats    *sim.Stats
	cost     *sim.CostModel
	fallback engine.Engine

	// pools is the engine-scoped shuffle memory: one engine-lifetime
	// BudgetPool per place (Options.ShuffleBudgetBytes /
	// conf.KeyM3REngineShuffleBudget), shared by every job of the sequence
	// through job-tagged reservations. Nil when the engine is unpooled —
	// jobs then account against private per-job pools, the pre-pool
	// behavior.
	pools []*engine.BudgetPool

	// cacheGov, when non-nil, is the budgeted cache's admission/eviction
	// governor (Options.CacheBudgetBytes / conf.KeyM3RCacheBudget),
	// installed as the kvstore's residency hook. Nil means the unbounded
	// in-memory cache, the paper's design point.
	cacheGov *cacheGovernor
}

// New creates an M3R engine over opts.Places simulated places.
func New(opts Options) (*Engine, error) {
	if opts.Backing == nil {
		return nil, fmt.Errorf("m3r: Options.Backing is required")
	}
	defaults, err := conf.EnvDefaults()
	if err != nil {
		return nil, err
	}
	poolBytes, err := engineBudget(opts.ShuffleBudgetBytes, defaults, conf.KeyM3REngineShuffleBudget)
	if err != nil {
		return nil, err
	}
	cacheBytes, err := engineBudget(opts.CacheBudgetBytes, defaults, conf.KeyM3RCacheBudget)
	if err != nil {
		return nil, err
	}
	cost := opts.Cost
	if cost == nil {
		cost = sim.Zero()
	}
	rt := x10.NewRuntime(x10.Options{
		Places:          opts.Places,
		WorkersPerPlace: opts.WorkersPerPlace,
		Transport:       opts.Transport,
		Stats:           opts.Stats,
		Cost:            cost,
	})
	cache := NewCache(rt)
	cfs := NewCachingFileSystem(opts.Backing, cache, rt)
	var pools []*engine.BudgetPool
	if poolBytes > 0 {
		pools = make([]*engine.BudgetPool, rt.NumPlaces())
		for p := range pools {
			pools[p] = engine.NewBudgetPool(poolBytes)
		}
	}
	var gov *cacheGovernor
	if cacheBytes > 0 {
		// Cache entries spill in the shared spill record format; they
		// outlive jobs, so their codec is the engine-wide default, not a
		// job's key.
		codec, err := spill.ParseCodec(defaults.Get(conf.KeyM3RSpillCodec))
		if err != nil {
			rt.Close()
			return nil, fmt.Errorf("m3r: cache budget: %w", err)
		}
		budgets := make([]*engine.JobBudget, rt.NumPlaces())
		for p := range budgets {
			if pools != nil {
				// Pooled engine: cache reservations share the place's pool
				// with the jobs' shuffle tags, capped at the cache budget.
				budgets[p] = pools[p].Job(cacheTag, cacheBytes)
			} else {
				budgets[p] = engine.NewBudgetPool(cacheBytes).Job(cacheTag, 0)
			}
		}
		gov = newCacheGovernor(opts.Stats, cache.Store(), budgets, codec)
		cache.Store().SetResidency(gov)
	}
	return &Engine{
		// Jobs see — and commit through — the caching filesystem; a temporary
		// output stays in the cache and is never written through it.
		host:     &engine.Host{Name: "m3r", FSID: dfs.RegisterInstance(cfs), FS: cfs, Stats: opts.Stats, ElideTemp: true},
		rt:       rt,
		cache:    cache,
		cfs:      cfs,
		stats:    opts.Stats,
		cost:     cost,
		fallback: opts.Fallback,
		pools:    pools,
		cacheGov: gov,
	}, nil
}

// engineBudget resolves an engine-scoped byte budget: a non-zero Options
// field wins (negative = none), otherwise key's conf.DefaultsEnv value —
// how CI's budget legs put every test engine under a pool without every
// test knowing about one. A default that is not an integer is an error.
func engineBudget(opt int64, defaults *conf.Configuration, key string) (int64, error) {
	if opt != 0 || !defaults.Has(key) {
		return opt, nil
	}
	v := defaults.Get(key)
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("m3r: %s: %s=%q is not an integer", conf.DefaultsEnv, key, v)
	}
	return n, nil
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.host.Name }

// FileSystem implements engine.Engine: jobs see the caching filesystem.
func (e *Engine) FileSystem() string { return e.host.FSID }

// CachingFS returns the engine's caching filesystem (clients use it for
// CacheFS interactions, §4.2).
func (e *Engine) CachingFS() *CachingFileSystem { return e.cfs }

// Cache returns the engine's key/value cache.
func (e *Engine) Cache() *Cache { return e.cache }

// Runtime returns the engine's place runtime.
func (e *Engine) Runtime() *x10.Runtime { return e.rt }

// Stats returns the engine's statistics sink.
func (e *Engine) Stats() *sim.Stats { return e.stats }

// ShufflePoolHeldBytes sums the bytes currently reserved across the engine
// pool's places (0 when unpooled) by jobs — the engine-lifetime cache tag's
// reservations are excluded, since cache entries legitimately stay resident
// across job boundaries. Between jobs of a healthy sequence it is exactly
// zero: every job's cleanup drains its reservations, which the server-mode
// equivalence tests pin.
func (e *Engine) ShufflePoolHeldBytes() int64 {
	var held int64
	for _, p := range e.pools {
		held += p.Held() - p.JobHeld(cacheTag)
	}
	return held
}

// CachePoolHeldBytes sums the bytes the cache tag holds reserved across
// places (0 when the cache is unbudgeted). At quiescence it equals
// CacheResidentBytes — the ledger invariant the accounting tests pin after
// every job, success and failure alike — and it drains to zero as entries
// are dropped or the engine closes.
func (e *Engine) CachePoolHeldBytes() int64 {
	if e.cacheGov == nil {
		return 0
	}
	return e.cacheGov.heldBytes()
}

// CacheResidentBytes returns the bytes of cache blocks currently resident
// under the cache budget (0 when unbudgeted).
func (e *Engine) CacheResidentBytes() int64 {
	if e.cacheGov == nil {
		return 0
	}
	return e.cacheGov.residentBytes()
}

// CacheSpilledEntries returns the cumulative count of cache blocks the
// budget moved to disk (evictions and commit-time overflow).
func (e *Engine) CacheSpilledEntries() int64 {
	if e.cacheGov == nil {
		return 0
	}
	return e.cacheGov.spilledCount()
}

// CacheReadmittedEntries returns the cumulative count of spilled cache
// blocks promoted back to memory by a later read.
func (e *Engine) CacheReadmittedEntries() int64 {
	if e.cacheGov == nil {
		return 0
	}
	return e.cacheGov.readmittedCount()
}

// Close implements engine.Engine.
func (e *Engine) Close() error {
	if !e.host.Shut() {
		return nil
	}
	if e.cacheGov != nil {
		// Detach the hook first so nothing spills or readmits during
		// teardown, then drain every cache reservation and remove the
		// cache spill directory.
		e.cache.Store().SetResidency(nil)
		e.cacheGov.close()
	}
	dfs.DropInstance(e.host.FSID)
	return e.rt.Close()
}

// PlaceOfPartition is the partition stability guarantee (§3.2.2.2): for a
// given number of places, the mapping from partitions to places is
// deterministic and identical across all jobs of the sequence.
func (e *Engine) PlaceOfPartition(partition int) int {
	return partition % e.rt.NumPlaces()
}

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
	defer j.Close()
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
		mergeCfg:      engine.MergeConfigFromJob(job),
	}
	// A kill aborts an engaged staged merge's workers directly, not only
	// through its consumer.
	x.mergeCfg.Lifecycle = j.Lifecycle
	// Budgeted-cache tiering counters are per-job deltas of the governor's
	// engine-lifetime totals; snapshot before planning (a cache lookup can
	// already readmit a spilled entry).
	if e.cacheGov != nil {
		x.cacheSpilled0 = e.cacheGov.spilledCount()
		x.cacheReadmitted0 = e.cacheGov.readmittedCount()
	}
	// Budget admission: on a pooled engine every job is budgeted (the
	// per-job key, when set, caps the job within the pool; an explicit
	// non-positive value opts the job out entirely). On an unpooled engine
	// a positive per-job key gets a private single-job pool: the same
	// byte-identical output as the pre-pool per-job accountants, but with
	// the largest-first policy active — a tight single job evicts its own
	// larger resident runs (and counts POOL_CONTENDED_BYTES) rather than
	// always spilling the newcomer.
	capSet := job.Has(conf.KeyM3RShuffleBudget)
	if (capSet && x.shuffleBudget > 0) || (!capSet && e.pools != nil) {
		var err error
		if x.classes, err = declaredRunClasses(j.Resolved); err != nil {
			return nil, err
		}
		x.budgets = make([]*engine.JobBudget, e.rt.NumPlaces())
		x.resident = make([]*engine.ResidentIndex[residentRun], e.rt.NumPlaces())
		for p := range x.budgets {
			if e.pools != nil {
				x.budgets[p] = e.pools[p].Job(j.ID, x.shuffleBudget)
			} else {
				x.budgets[p] = engine.NewBudgetPool(x.shuffleBudget).Job(j.ID, 0)
			}
			x.resident[p] = engine.NewResidentIndex[residentRun]()
		}
	}
	return x, nil
}

// countCacheTiering reports a committed job's share of the budgeted cache's
// tiering in its counters.
func (x *jobExec) countCacheTiering() {
	gov := x.e.cacheGov
	if gov == nil {
		return
	}
	x.Counters.Find(counters.M3RGroup, counters.CacheResidentBytes).SetValue(gov.residentBytes())
	x.Counters.Find(counters.M3RGroup, counters.CacheSpilledEntries).SetValue(gov.spilledCount() - x.cacheSpilled0)
	x.Counters.Find(counters.M3RGroup, counters.CacheReadmittedEntries).SetValue(gov.readmittedCount() - x.cacheReadmitted0)
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
	e.stats.Add(sim.FailoverJobs, 1)
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
	parts        []*partitionInput
	temp         bool // the output is cache-only (§4.2.3): Job.WritesOutput is false
	cacheEnabled bool
	dedup        bool
	cmu          sync.Mutex

	// The cache governor's totals when the job was admitted.
	cacheSpilled0, cacheReadmitted0 int64

	// Shuffle memory lifecycle (conf.KeyM3RShuffleBudget, over the engine
	// pool of conf.KeyM3REngineShuffleBudget when one is configured): when
	// the job is budgeted, its shuffle runs are bytes from collect to merge
	// (frame.go) and each place accounts its resident runs — sorted segments
	// in the shared spill record format (internal/spill) — against
	// budgets[place], the job's tagged view of the place's pool. Runs that
	// cannot be admitted go to disk through the spill codec and re-enter the
	// merge through the same decoding leaf as the resident ones. Under
	// contention the largest-first policy may instead re-spill a larger cold
	// resident run (tracked per place in resident) to keep the smaller
	// newcomer in memory. The reservations release incrementally as reduce
	// tasks drain resident runs. Unbudgeted jobs (no pool and no positive
	// per-job budget, or an explicit non-positive per-job budget) skip all of
	// it and shuffle objects: the paper's pure in-memory design point.
	shuffleBudget int64
	budgets       []*engine.JobBudget
	resident      []*engine.ResidentIndex[residentRun]
	classes       runClasses // the declared map-output classes of a budgeted job
	spillMu       sync.Mutex
	spillDir      string
	spillSeq      atomic.Int64

	// Staged parallel reduce-side merge (conf.KeyMergeParallelism /
	// conf.KeyMergeMinRuns): partitions with enough runs merge their run
	// set through concurrent subset mergers instead of one goroutine.
	mergeCfg engine.MergeConfig
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

func (x *jobExec) mergeCounters(ctx *engine.TaskContext) {
	x.cmu.Lock()
	x.Counters.MergeFrom(ctx.Counters)
	x.cmu.Unlock()
}

// tallyPairs adds a finished task's pair counts to the engine's stats. The
// collectors count each cloned, aliased and co-located pair in the task's
// own cells, one uncontended add per record; the engine-wide totals take
// the sums here, once per task — deferred, so a task that fails, panics or
// is killed still reports the pairs it handled before it stopped.
func (x *jobExec) tallyPairs(ctx *engine.TaskContext) {
	for _, t := range [...]struct {
		stat string
		cell *counters.Counter
	}{
		{sim.ClonedPairs, ctx.Cells.ClonedPairs},
		{sim.AliasedPairs, ctx.Cells.AliasedPairs},
		{sim.LocalPairs, ctx.Cells.LocalShufflePairs},
	} {
		if n := t.cell.Value(); n != 0 {
			x.e.stats.Add(t.stat, n)
		}
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
					e.rt.At(p, func() { err = x.runMapTask(a) })
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
					e.rt.At(p, func() { err = x.runReduceTask(q) })
					return err
				})
			}
			return rinner.Wait()
		})
	}
	return fin.Wait()
}

// runMapTask executes one map task at its assigned place.
func (x *jobExec) runMapTask(a *mapAssignment) (err error) {
	e := x.e
	if err := x.Lifecycle.Err(); err != nil {
		// The job is already cancelled: don't launch the task at all.
		return err
	}
	e.stats.Add(sim.TasksLaunched, 1)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("map task %d panicked: %v\n%s", a.index, p, debug.Stack())
		}
	}()
	taskJob := x.Conf.CloneJob()
	// Place-aware output plumbing (MultipleOutputs side files through the
	// cache) homes blocks at the writing task's place.
	taskJob.Set(conf.KeyM3RTaskPlace, strconv.Itoa(a.place))
	taskJob.Set(conf.KeyTaskPartition, strconv.Itoa(a.index))
	taskID := fmt.Sprintf("attempt_%s_m_%06d_0", x.ID, a.index)
	ctx := engine.NewTaskContext(taskJob, taskID, a.split)
	defer x.tallyPairs(ctx)
	ctx.IncrCounter(counters.JobGroup, counters.TotalLaunchedMaps, 1)

	mr := x.Resolved.NewMapRun()
	mr.Configure(taskJob)

	var collector mapred.OutputCollector
	var finish func() error
	var abort func()
	// The abort runs on every failure exit — error return or panic (the
	// recover above sees it after this defer) — so a failed task never
	// leaves partial output in the cache or pooled buffers adrift.
	done := false
	defer func() {
		if !done && abort != nil {
			abort()
		}
	}()
	if x.Resolved.MapOnly {
		// §5.3: a zero-reducer job's map output is the job's output.
		sink, err := x.openTaskSink(ctx, a.place, a.index, engine.MapTaskImmutable(x.Resolved, a.split))
		if err != nil {
			return err
		}
		cells := &ctx.Cells
		collector = mapred.CollectorFunc(func(k, v wio.Writable) error {
			if err := x.Lifecycle.Err(); err != nil {
				return err
			}
			cells.MapOutputRecords.Increment(1)
			return sink.write(k, v)
		})
		finish, abort = sink.commit, sink.abort
	} else {
		sc := x.newShuffleCollector(a, ctx)
		collector, finish, abort = sc, sc.flush, sc.abort
	}

	if err := x.feedMapTask(a, mr, collector, ctx, taskJob); err != nil {
		return fmt.Errorf("map task %d: %w", a.index, err)
	}
	if err := finish(); err != nil {
		return fmt.Errorf("map task %d output: %w", a.index, err)
	}
	done = true
	x.mergeCounters(ctx)
	return nil
}

// feedMapTask routes input into the mapper: cached pairs (aliased from the
// heap), a fresh read that populates the cache, or a plain streamed read
// for unnameable splits (§3.2.1, §4.2.1).
func (x *jobExec) feedMapTask(a *mapAssignment, mr engine.MapRun,
	out mapred.OutputCollector, ctx *engine.TaskContext, taskJob *conf.JobConf) error {
	e := x.e
	if a.hit {
		pairs, _, err := e.cache.ReadRanges(a.place, a.cached)
		if err != nil {
			return err
		}
		ctx.IncrCounter(counters.M3RGroup, counters.CacheHitSplits, 1)
		e.stats.Add(sim.CacheHits, 1)
		return runPairs(mr, pairs, out, ctx)
	}
	name, nameOK := formats.SplitName(a.split)
	if nameOK && x.cacheEnabled {
		reader, err := x.Resolved.InputFormat.GetRecordReader(a.split, taskJob)
		if err != nil {
			return err
		}
		pairs, err := materialize(reader)
		if cerr := reader.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := e.cache.PutSplit(a.place, name, pairs); err != nil {
			return err
		}
		ctx.IncrCounter(counters.M3RGroup, counters.CacheMissSplits, 1)
		e.stats.Add(sim.CacheMisses, 1)
		e.stats.Add(sim.CacheWrites, 1)
		return runPairs(mr, pairs, out, ctx)
	}
	// Unnameable split: stream it, bypassing the cache (§4.2.1).
	reader, err := x.Resolved.InputFormat.GetRecordReader(a.split, taskJob)
	if err != nil {
		return err
	}
	defer reader.Close()
	e.stats.Add(sim.CacheMisses, 1)
	return mr.Run(reader, out, ctx)
}

// runPairs feeds in-memory pairs to the map task, preferring the direct
// fast path.
func runPairs(mr engine.MapRun, pairs []wio.Pair, out mapred.OutputCollector, ctx *engine.TaskContext) error {
	if pr, ok := mr.(engine.PairsRunner); ok {
		return pr.RunPairs(pairs, out, ctx)
	}
	return fmt.Errorf("m3r: map runner %T cannot consume cached pairs", mr)
}

// pairScratchPool recycles the growth buffers materialize appends into, so
// steady-state job sequences stop paying the doubling-garbage of reading
// splits of similar size over and over.
var pairScratchPool = sync.Pool{
	New: func() any {
		s := make([]wio.Pair, 0, 1024)
		return &s
	},
}

// materialize reads a whole split with fresh holders per record, producing
// the key/value sequence the cache retains. It appends into a pooled
// scratch buffer and copies into an exactly-sized slice at the end — the
// cache retains the result indefinitely, so the returned slice must not
// alias pooled storage.
func materialize(reader formats.RecordReader) ([]wio.Pair, error) {
	sp := pairScratchPool.Get().(*[]wio.Pair)
	scratch := (*sp)[:0]
	release := func() {
		clear(scratch) // drop object references so the pool pins nothing
		*sp = scratch[:0]
		pairScratchPool.Put(sp)
	}
	for {
		k := reader.CreateKey()
		v := reader.CreateValue()
		ok, err := reader.Next(k, v)
		if err != nil {
			release()
			return nil, err
		}
		if !ok {
			out := make([]wio.Pair, len(scratch))
			copy(out, scratch)
			release()
			return out, nil
		}
		scratch = append(scratch, wio.Pair{Key: k, Value: v})
	}
}

// partitionInput accumulates one reduce partition's shuffled input as
// sorted runs, one per source map task. Map tasks sort their runs map-side
// (inside the already-parallel map phase, see shuffleCollector.flush), so
// the reduce task only k-way merges them — the run-based shuffle-and-sort
// pipeline that keeps the O(n log n) sort off the reduce critical path.
// Under a shuffle memory budget the runs are serialized: resident as
// segments in the shared spill record format, or, when they do not fit their
// place's accountant, on disk in the same format; both enter the same merge
// through decoding leaves.
type partitionInput struct {
	x     *jobExec
	place int
	mu    sync.Mutex
	runs  []*sourceRun
}

// sourceRun is one map task's sorted contribution to a partition: pairs,
// objects on the heap, on an unbudgeted job; a serializedRun on a budgeted
// one. Runs are heap-allocated and shared with the place's resident index so
// the largest-first policy can flip a cold resident run to spilled in place
// (under pi.mu) without disturbing its slot — and with it the src-order
// merge tie-break.
type sourceRun struct {
	src   int
	pairs []wio.Pair
	*serializedRun
}

// serializedRun is a budgeted job's run, bytes from collect to merge:
// exactly one of seg, the run resident as a raw-format segment, and
// spillPath, the run in a spill file, with the key/value class names the
// merge leaf decodes them as beside it (in memory, not on disk, keeping the
// file format byte-identical to the Hadoop engine's). size is what a resident
// segment holds reserved, Σ spill.Rec.Size() over its nrecs records and never
// less than len(seg); it goes back to the place's budget pool when the reduce
// merge drains the run. It is a separate allocation so that an unbudgeted
// job's runs stay the three words they were.
type serializedRun struct {
	seg                []byte
	spillPath          string
	keyClass, valClass string
	nrecs              int
	size               int64
}

// arrivedRun is a budgeted run on its way into its partition.
type arrivedRun struct {
	pi *partitionInput
	r  *sourceRun
}

// admitRuns installs what one map task's frame toward place became — a
// sorted segment per partition, in ascending partition order — with batch
// admission: the task's total is reserved in one pool transaction when it
// fits, installing every run resident with a single lock round instead of
// one admission (and one potential eviction loop) per partition. When the
// batch does not fit in one piece each run takes the per-run path, in order,
// so what a task admits, evicts and spills is the same from one execution to
// the next.
func (x *jobExec) admitRuns(ctx *engine.TaskContext, place int, runs []arrivedRun) error {
	var total int64
	for _, a := range runs {
		total += a.r.size
	}
	if len(runs) > 1 && x.budgets[place].Reserve(total) {
		for _, a := range runs {
			a.pi.installResident(a.r)
		}
		return nil
	}
	for _, a := range runs {
		if err := a.pi.admit(ctx, a.r); err != nil {
			return err
		}
	}
	return nil
}

// admit is the per-run admission path. The place's pool decides: under
// contention the largest-first policy may re-spill a larger cold resident
// run of this job to keep the newcomer in memory; a run the pool cannot
// admit goes to disk itself, inline on the flushing map task.
func (pi *partitionInput) admit(ctx *engine.TaskContext, r *sourceRun) error {
	x := pi.x
	admitted, contended, err := x.budgets[pi.place].ReserveEvicting(r.size, func(min int64) (int64, error) {
		return x.evictLargest(ctx, pi.place, min)
	})
	if err != nil {
		return err
	}
	if contended {
		ctx.Cells.PoolContendedBytes.Increment(r.size)
	}
	if admitted {
		pi.installResident(r)
		return nil
	}
	path, err := x.spillSegment(ctx, r.seg, r.nrecs)
	if err != nil {
		return err
	}
	r.seg, r.size, r.spillPath = nil, 0, path
	pi.install(r)
	return nil
}

// installResident installs a run whose size is reserved and offers it to the
// largest-first policy.
func (pi *partitionInput) installResident(r *sourceRun) {
	pi.install(r)
	pi.x.resident[pi.place].Add(residentRun{r, pi}, r.size, int64(r.src))
}

// checkResidentBytes is the accounting's invariant, checked once per place
// at the shuffle barrier, when every admission is over and no reducer has
// released anything yet: the segments resident at place are no more bytes
// than the job holds reserved there. A run is reserved at Σ Rec.Size(), its
// segment is the same records with their real framing, so a violation is a
// run resident without its reservation — the pool over-committing in silence.
func (x *jobExec) checkResidentBytes(place int) error {
	var resident int64
	for _, pi := range x.parts {
		if pi.place != place {
			continue
		}
		pi.mu.Lock()
		for _, r := range pi.runs {
			resident += int64(len(r.seg))
		}
		pi.mu.Unlock()
	}
	if held := x.budgets[place].Held(); resident > held {
		return fmt.Errorf("m3r: place %d holds %d bytes of resident segments against %d reserved", place, resident, held)
	}
	return nil
}

// chargeSpill charges one encoded run's spill — an overflow or a
// largest-first eviction — to the task's counters and the engine's
// stats/cost model. SPILLED_BYTES (and the disk cost) is the stored length
// — compressed when a codec is configured — while SPILLED_RAW_BYTES is the
// raw record-format length, so the ratio between the two is the job's
// observable spill compression.
func (x *jobExec) chargeSpill(ctx *engine.TaskContext, enc spill.EncodedRun, nrecs int) {
	stored := int64(len(enc.Data))
	ctx.Cells.SpilledRuns.Increment(1)
	ctx.Cells.SpilledBytes.Increment(stored)
	ctx.Cells.SpilledRawBytes.Increment(enc.Raw)
	ctx.Cells.SpilledRecords.Increment(int64(nrecs))
	e := x.e
	e.stats.Add(sim.SpillBytes, stored)
	e.stats.Add(sim.SpillRawBytes, enc.Raw)
	e.stats.Add(sim.SpillFiles, 1)
	e.cost.ChargeDisk(e.stats, stored)
}

// installRuns installs an unbudgeted map task's sorted run per partition.
func (x *jobExec) installRuns(src int, runs [][]wio.Pair) {
	for q, pairs := range runs {
		if len(pairs) > 0 {
			x.parts[q].install(&sourceRun{src: src, pairs: pairs})
		}
	}
}

func (pi *partitionInput) install(r *sourceRun) {
	pi.mu.Lock()
	pi.runs = append(pi.runs, r)
	pi.mu.Unlock()
}

// takeReaders returns one merge leaf per accumulated run, ordered by source
// task, detaching them from the partition. Source order is the merge's
// stability tie-break: equal keys surface in map-task order, exactly as a
// concatenate-then-stable-sort of the runs would produce them, whether a run
// stayed resident or spilled.
//
// An unbudgeted job's runs are read where they lie. A budgeted job has one
// leaf kind, the decoding reader — over the segment in memory or the spill
// file's stream — so its records become objects once, here. A resident
// segment's leaf gets the incremental-release wrapper: as the merge exhausts
// (or abandons) the run, its reservation returns to the place's accountant,
// so a long reduce phase frees memory while it is still running.
func (pi *partitionInput) takeReaders(ctx *engine.TaskContext) ([]engine.RunReader, error) {
	x := pi.x
	pi.mu.Lock()
	defer pi.mu.Unlock()
	slices.SortStableFunc(pi.runs, func(a, b *sourceRun) int { return a.src - b.src })
	out := make([]engine.RunReader, 0, len(pi.runs))
	for _, r := range pi.runs {
		switch {
		case x.budgets == nil:
			out = append(out, engine.NewSliceRunReader(r.pairs))
		case r.spillPath == "":
			rd := engine.NewDecodingRunReader(&segmentSource{r.seg}, r.keyClass, r.valClass)
			out = append(out, releasingReader(rd, x.budgets[pi.place], r.size, ctx))
		default:
			s, err := spill.OpenFile(r.spillPath)
			if err != nil {
				engine.CloseAllOnErr(out)
				return nil, err
			}
			out = append(out, engine.NewDecodingRunReader(s, r.keyClass, r.valClass))
		}
	}
	pi.runs = nil
	return out, nil
}

// releasingReader wraps a resident run's reader to hand size bytes back to
// acct exactly once — when the merge exhausts or closes the run — counting
// them in BUDGET_RELEASED_BYTES.
func releasingReader(rd engine.RunReader, acct *engine.JobBudget, size int64, ctx *engine.TaskContext) engine.RunReader {
	cell := ctx.Cells.BudgetReleasedBytes
	return engine.NewReleasingRunReader(rd, func() {
		acct.Release(size)
		cell.Increment(size)
	})
}

// runReduceTask executes one reduce partition at its stable place.
func (x *jobExec) runReduceTask(q int) (err error) {
	e := x.e
	if err := x.Lifecycle.Err(); err != nil {
		return err
	}
	e.stats.Add(sim.TasksLaunched, 1)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("reduce task %d panicked: %v\n%s", q, p, debug.Stack())
		}
	}()
	place := e.PlaceOfPartition(q)
	taskJob := x.Conf.CloneJob()
	taskJob.Set(conf.KeyM3RTaskPlace, strconv.Itoa(place))
	taskJob.Set(conf.KeyTaskPartition, strconv.Itoa(q))
	taskID := fmt.Sprintf("attempt_%s_r_%06d_0", x.ID, q)
	ctx := engine.NewTaskContext(taskJob, taskID, nil)
	defer x.tallyPairs(ctx)
	ctx.IncrCounter(counters.JobGroup, counters.TotalLaunchedReduces, 1)

	// The HMR API promises reducers sorted input even in memory. Map tasks
	// shipped sorted runs (resident or spilled); merge them stably through
	// the tournament tree, streaming straight into the reducer instead of
	// materializing a merged copy of the partition. With staging configured
	// and enough runs, contiguous subsets of the run set merge on worker
	// goroutines — spilled runs decode on those workers, overlapping disk
	// decode with final-merge consumption — and the final tournament still
	// streams into DriveReduce.
	readers, err := x.parts[q].takeReaders(ctx)
	if err != nil {
		return err
	}
	merged, err := engine.NewStagedMergeIter(readers, x.Resolved.SortCmp, x.mergeCfg, ctx.Cells.ParallelMergeStages)
	if err != nil {
		return err
	}
	defer merged.Close()

	reducer := x.Resolved.NewReduceRun()
	reducer.Configure(taskJob)

	sink, err := x.openTaskSink(ctx, place, q, x.Resolved.ReduceImmutable)
	if err != nil {
		return err
	}
	defer sink.abort()
	cells := &ctx.Cells
	collector := mapred.CollectorFunc(func(k, v wio.Writable) error {
		cells.ReduceOutputRecords.Increment(1)
		return sink.write(k, v)
	})

	// The cancel wrapper is the reduce phase's per-record check: one atomic
	// load per pair, surfacing the kill as the stream error so the merge
	// closes and the sink aborts through the normal failure path.
	in := engine.CancelPairIter(merged, x.Lifecycle)
	if err := engine.DriveReduce(reducer, x.Resolved.GroupCmp, in, collector, ctx, false); err != nil {
		return fmt.Errorf("reduce task %d: %w", q, err)
	}
	if err := sink.commit(); err != nil {
		return err
	}
	x.mergeCounters(ctx)
	return nil
}
