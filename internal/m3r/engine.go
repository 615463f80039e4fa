package m3r

import (
	"fmt"
	"math"
	"strconv"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/sim"
	"m3r/internal/spill"
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
	// ShuffleBudgetBytes, when positive, limits the engine's per-place
	// shuffle memory pool, which every job of its sequence shares
	// (conf.KeyM3REngineShuffleBudget). Zero takes that key's
	// conf.DefaultsEnv value; negative leaves the pool unlimited, so only a
	// job's own cap budgets it.
	ShuffleBudgetBytes int64
	// CacheBudgetBytes, when positive, puts the inter-job cache under a
	// per-place byte ceiling (conf.KeyM3RCacheBudget), as the cache's cap
	// within the shuffle pool. Zero takes that key's conf.DefaultsEnv value;
	// negative forces the unbounded cache.
	CacheBudgetBytes int64
	// Transport moves cross-place shuffle frames; nil means the in-process
	// loopback backend. The engine's runtime takes ownership: Close closes
	// it.
	Transport x10.Transport
	// Stats and Cost may be nil: the engine then counts into a sink of its
	// own (Engine.Stats) and models no delays.
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
	cost     *sim.CostModel
	fallback engine.Engine

	// pools is the engine's shuffle memory: one engine-lifetime BudgetPool
	// per place, limited by Options.ShuffleBudgetBytes /
	// conf.KeyM3REngineShuffleBudget (math.MaxInt64 when unset), shared by
	// every budgeted job of the sequence and the budgeted cache through
	// tagged reservations.
	pools []*engine.BudgetPool
}

// cacheTag is the pool tag the budgeted cache's blocks are charged under
// (Options.CacheBudgetBytes / conf.KeyM3RCacheBudget; without one, the
// cache is the unbounded in-memory store, the paper's design point).
// Unlike job tags it is engine-lifetime: entries outlive the jobs that
// wrote them, so the tag's held bytes drain only as entries are dropped,
// spilled, or the engine closes — never at a job boundary.
const cacheTag = "m3r-cache"

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
	stats := opts.Stats
	if stats == nil {
		stats = sim.NewStats()
	}
	rt := x10.NewRuntime(x10.Options{
		Places:          opts.Places,
		WorkersPerPlace: opts.WorkersPerPlace,
		Transport:       opts.Transport,
		Stats:           stats,
		Cost:            cost,
	})
	cache := NewCache(rt)
	cfs := NewCachingFileSystem(opts.Backing, cache, rt)
	limit := int64(math.MaxInt64)
	if poolBytes > 0 {
		limit = poolBytes
	}
	pools := make([]*engine.BudgetPool, rt.NumPlaces())
	for p := range pools {
		pools[p] = engine.NewBudgetPool(limit)
	}
	if cacheBytes > 0 {
		// Cache entries spill in the shared spill record format; they
		// outlive jobs, so their codec is the engine-wide default, not a
		// job's key.
		codec, err := spill.ParseCodec(defaults.Get(conf.KeyM3RSpillCodec))
		if err != nil {
			rt.Close()
			return nil, fmt.Errorf("m3r: cache budget: %w", err)
		}
		// Cache reservations share the place's pool with the jobs' shuffle
		// tags, capped at the cache budget.
		budgets := make([]*engine.JobBudget, rt.NumPlaces())
		for p := range budgets {
			budgets[p] = pools[p].Job(cacheTag, cacheBytes)
		}
		cache.Store().SetBudget(budgets, codec)
	}
	// Jobs see — and commit through — the caching filesystem; a temporary
	// output stays in the cache and is never written through it.
	host := &engine.Host{Name: "m3r", FSID: dfs.RegisterInstance(cfs), FS: cfs, Stats: stats, ElideTemp: true}
	host.SetPlaces(rt.NumPlaces())
	return &Engine{
		host:     host,
		rt:       rt,
		cache:    cache,
		cfs:      cfs,
		cost:     cost,
		fallback: opts.Fallback,
		pools:    pools,
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

// Stats returns the engine's statistics sink, never nil.
func (e *Engine) Stats() *sim.Stats { return e.host.Stats }

// ShufflePoolHeldBytes sums the bytes currently reserved across the engine
// pool's places by jobs — the engine-lifetime cache tag's reservations are
// excluded, since cache entries legitimately stay resident across job
// boundaries. Between jobs of a healthy sequence it is exactly
// zero: every job's cleanup drains its reservations, which the server-mode
// equivalence tests pin.
func (e *Engine) ShufflePoolHeldBytes() int64 {
	var held int64
	for _, p := range e.pools {
		held += p.Held() - p.JobHeld(cacheTag)
	}
	return held
}

// Close implements engine.Engine. The cache budget goes first, so nothing
// spills or readmits during teardown: every cache reservation drains and
// the cache spill directory is removed.
func (e *Engine) Close() error {
	if !e.host.Shut() {
		return nil
	}
	e.cache.store.DropBudget()
	dfs.DropInstance(e.host.FSID)
	return e.rt.Close()
}

// PlaceOfPartition is the partition stability guarantee (§3.2.2.2): for a
// given number of places, the mapping from partitions to places is
// deterministic and identical across all jobs of the sequence.
func (e *Engine) PlaceOfPartition(partition int) int {
	return partition % e.rt.NumPlaces()
}
