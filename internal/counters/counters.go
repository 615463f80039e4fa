// Package counters implements Hadoop-style job counters: named 64-bit
// accumulators grouped into counter groups, incremented from tasks and
// aggregated into the job report. Both engines keep the standard system
// counters updated (map input/output records, shuffled bytes, spilled
// records, …) alongside user counters, as the paper notes M3R does (§5.3).
//
// Incr/Find take a mutex to resolve group/name strings; hot per-record
// paths avoid that by resolving their Counter pointers once per task
// (engine.TaskContext.Cells) and paying only the atomic add thereafter.
package counters

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"m3r/internal/sim"
	"m3r/internal/wio"
)

// Standard counter groups and names maintained by the engines.
const (
	TaskGroup = "org.apache.hadoop.mapred.Task$Counter"
	JobGroup  = "org.apache.hadoop.mapred.JobInProgress$Counter"
	M3RGroup  = "m3r.EngineCounters"

	MapInputRecords      = "MAP_INPUT_RECORDS"
	MapOutputRecords     = "MAP_OUTPUT_RECORDS"
	MapOutputBytes       = "MAP_OUTPUT_BYTES"
	CombineInputRecords  = "COMBINE_INPUT_RECORDS"
	CombineOutputRecords = "COMBINE_OUTPUT_RECORDS"
	ReduceInputGroups    = "REDUCE_INPUT_GROUPS"
	ReduceInputRecords   = "REDUCE_INPUT_RECORDS"
	ReduceOutputRecords  = "REDUCE_OUTPUT_RECORDS"
	ReduceShuffleBytes   = "REDUCE_SHUFFLE_BYTES"
	SpilledRecords       = "SPILLED_RECORDS"
	TotalLaunchedMaps    = "TOTAL_LAUNCHED_MAPS"
	TotalLaunchedReduces = "TOTAL_LAUNCHED_REDUCES"
	DataLocalMaps        = "DATA_LOCAL_MAPS"

	// M3R-extension counters, maintained only by the M3R engine.
	CacheHitSplits  = "CACHE_HIT_SPLITS"
	CacheMissSplits = "CACHE_MISS_SPLITS"
	// Budgeted-cache tiering (m3r.cache.budget.bytes): CACHE_RESIDENT_BYTES
	// is the gauge of cache blocks resident under the budget at job end;
	// the entry counters are per-job deltas — cache blocks the largest-first
	// policy moved to disk (evictions and commit-time overflow) and spilled
	// blocks promoted back to memory when a later job read them.
	CacheResidentBytes     = "CACHE_RESIDENT_BYTES"
	CacheSpilledEntries    = "CACHE_SPILLED_ENTRIES"
	CacheReadmittedEntries = "CACHE_READMITTED_ENTRIES"
	SpilledRuns            = "SPILLED_RUNS"
	// SpilledBytes counts the bytes spilled runs actually occupy on disk —
	// compressed bytes when a spill codec (m3r.shuffle.compress.codec) is
	// configured. SpilledRawBytes counts what the same runs occupy in the
	// raw record format, so SPILLED_BYTES / SPILLED_RAW_BYTES is the
	// observable compression ratio (equal when the codec is none).
	SpilledBytes    = "SPILLED_BYTES"
	SpilledRawBytes = "SPILLED_RAW_BYTES"
	// SpillQueueDepth is inert: the async spill queue whose backlog it
	// gauged is gone and nothing increments it. Declared only because
	// benchmark/ still reads it (as 0).
	SpillQueueDepth = "SPILL_QUEUE_DEPTH"
	// BudgetReleasedBytes counts shuffle-budget bytes handed back to the
	// place accountants as reduce tasks drained resident runs.
	BudgetReleasedBytes = "BUDGET_RELEASED_BYTES"
	// PoolContendedBytes counts run bytes whose first reservation against
	// the place's shuffle budget pool failed — shared-pool pressure on a
	// pooled engine; on an unpooled engine, the job's own budget filling
	// up (every overflow counts, since admission goes through the same
	// pool machinery either way). A contended run may still end up
	// resident if the largest-first policy evicted room for it.
	PoolContendedBytes = "POOL_CONTENDED_BYTES"
	// EvictedResidentRuns counts cold resident runs the largest-first spill
	// policy re-spilled to disk to admit a smaller contended run — on
	// pooled and unpooled engines alike (they are also counted in
	// SPILLED_RUNS/SPILLED_BYTES like any other spill).
	EvictedResidentRuns = "EVICTED_RESIDENT_RUNS"
	LocalShufflePairs   = "LOCAL_SHUFFLE_PAIRS"
	RemoteShufflePairs  = "REMOTE_SHUFFLE_PAIRS"
	RemoteShuffleBytes  = "REMOTE_SHUFFLE_BYTES"
	// NET_FRAMES / NET_BYTES count shuffle frames (and their payload bytes)
	// that left the process over a remote place transport; they stay absent
	// on the default inproc backend.
	NetFrames = "NET_FRAMES"
	NetBytes  = "NET_BYTES"

	ClonedPairs       = "CLONED_PAIRS"
	AliasedPairs      = "ALIASED_PAIRS"
	DedupHits         = "DEDUP_HITS"
	TempOutputsElided = "TEMP_OUTPUTS_ELIDED"

	// Job-lifecycle counters: TASK_ATTEMPT_RETRIES (Hadoop engine task
	// re-execution) and FAILOVER_JOBS (M3R job-level failover, counted in
	// the fallback engine's report). Killed and deadline-expired jobs
	// produce no report; the job envelope counts them in the engine's stats
	// (jobs.killed, jobs.deadline.exceeded).
	TaskAttemptRetries = "TASK_ATTEMPT_RETRIES"
	FailoverJobs       = "FAILOVER_JOBS"
)

// TaskStats lists the task counters that are also engine statistics. The
// task envelope (engine.Job.RunTask) adds each one's value in a finished
// attempt to the engine's sim.Stats under Stat, so an event inside a task is
// counted in the task's cell and nowhere else; m3rlint's keycheck rejects a
// Stats.Add of a listed name outside the few functions it names. A row earns
// its place by the Stats.Add site it makes unnecessary.
var TaskStats = []struct{ Group, Name, Stat string }{
	{M3RGroup, ClonedPairs, sim.ClonedPairs},
	{M3RGroup, AliasedPairs, sim.AliasedPairs},
	{M3RGroup, LocalShufflePairs, sim.LocalPairs},
	{M3RGroup, SpilledBytes, sim.SpillBytes},
	{M3RGroup, SpilledRawBytes, sim.SpillRawBytes},
	{M3RGroup, SpilledRuns, sim.SpillFiles},
	{M3RGroup, EvictedResidentRuns, sim.EvictedRuns},
	{M3RGroup, CacheHitSplits, sim.CacheHits},
	{M3RGroup, CacheMissSplits, sim.CacheMisses},
	{M3RGroup, DedupHits, sim.DedupHits},
	{TaskGroup, RemoteShuffleBytes, sim.RemoteBytes},
	{TaskGroup, ReduceShuffleBytes, sim.ShuffleFetchBytes},
}

// Counter is a single named accumulator, safe for concurrent use.
type Counter struct {
	group, name string
	value       atomic.Int64
}

// Group returns the counter's group name.
func (c *Counter) Group() string { return c.group }

// Name returns the counter's name within its group.
func (c *Counter) Name() string { return c.name }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.value.Load() }

// Increment adds amount (which may be negative).
func (c *Counter) Increment(amount int64) { c.value.Add(amount) }

// SetValue overwrites the value.
func (c *Counter) SetValue(v int64) { c.value.Store(v) }

// Counters is a concurrent registry of counters keyed by group and name.
type Counters struct {
	mu sync.Mutex
	m  map[key]*Counter
}

// key names one counter. One flat map costs a counter set one table
// however many groups it spans.
type key struct{ group, name string }

// New returns an empty counter set.
func New() *Counters {
	return &Counters{m: make(map[key]*Counter)}
}

// Cell names one counter of a NewCells set and where to store its pointer.
type Cell struct {
	Group, Name string
	Ptr         **Counter
}

// NewCells returns a counter set holding the cells' counters and stores
// each one's pointer through its cell's Ptr: a task resolves its hot-path
// cells this way. It is one pass over a set no other goroutine can see yet,
// so it takes no lock; the counters share one allocation and the map is
// made at its final size. Later Finds add counters as New's do.
func NewCells(cells []Cell) *Counters {
	cs := &Counters{m: make(map[key]*Counter, len(cells))}
	slab := make([]Counter, len(cells))
	for i, cell := range cells {
		k := key{cell.Group, cell.Name}
		c, ok := cs.m[k]
		if !ok {
			c = &slab[i]
			c.group, c.name = cell.Group, cell.Name
			cs.m[k] = c
		}
		*cell.Ptr = c
	}
	return cs
}

// Find returns (creating if necessary) the counter group/name.
func (cs *Counters) Find(group, name string) *Counter {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.findLocked(group, name)
}

func (cs *Counters) findLocked(group, name string) *Counter {
	k := key{group, name}
	c, ok := cs.m[k]
	if !ok {
		c = &Counter{group: group, name: name}
		cs.m[k] = c
	}
	return c
}

// Incr adds amount to the counter group/name.
func (cs *Counters) Incr(group, name string, amount int64) {
	cs.Find(group, name).Increment(amount)
}

// Value returns the current value of group/name (0 when absent).
func (cs *Counters) Value(group, name string) int64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if c, ok := cs.m[key{group, name}]; ok {
		return c.Value()
	}
	return 0
}

// MergeFrom adds every non-zero counter in other into the receiver.
// Engines use it to aggregate per-task counters into the job total.
// Zero-valued counters are skipped: tasks pre-resolve hot-path cells
// (engine.TaskContext.Cells) that often stay untouched — e.g. the M3R
// shuffle cells in a Hadoop-engine task — and merging them would pad
// every job report with irrelevant zero entries. Nothing is sorted: the
// non-zero counters are gathered under other's lock and added under the
// receiver's, never both at once, so a set may merge into itself.
func (cs *Counters) MergeFrom(other *Counters) {
	var buf [32]*Counter
	live := buf[:0]
	other.mu.Lock()
	for _, c := range other.m {
		if c.Value() != 0 {
			live = append(live, c)
		}
	}
	other.mu.Unlock()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, c := range live {
		cs.findLocked(c.group, c.name).Increment(c.Value())
	}
}

// Groups returns the sorted group names.
func (cs *Counters) Groups() []string {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var out []string
	for k := range cs.m {
		if !slices.Contains(out, k.group) {
			out = append(out, k.group)
		}
	}
	sort.Strings(out)
	return out
}

// GroupCounters returns the counters of a group sorted by name.
func (cs *Counters) GroupCounters(group string) []*Counter {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var out []*Counter
	for k, c := range cs.m {
		if k.group == group {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WriteTo implements wio.Writable so counters travel in server-mode reports.
func (cs *Counters) WriteTo(w *wio.Writer) error {
	groups := cs.Groups()
	if err := w.WriteUvarint(uint64(len(groups))); err != nil {
		return err
	}
	for _, g := range groups {
		if err := w.WriteString(g); err != nil {
			return err
		}
		counters := cs.GroupCounters(g)
		if err := w.WriteUvarint(uint64(len(counters))); err != nil {
			return err
		}
		for _, c := range counters {
			if err := w.WriteString(c.Name()); err != nil {
				return err
			}
			if err := w.WriteVarint(c.Value()); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadFields implements wio.Writable.
func (cs *Counters) ReadFields(r *wio.Reader) error {
	cs.mu.Lock()
	cs.m = make(map[key]*Counter)
	cs.mu.Unlock()
	ng, err := r.ReadUvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < ng; i++ {
		g, err := r.ReadString()
		if err != nil {
			return err
		}
		nc, err := r.ReadUvarint()
		if err != nil {
			return err
		}
		for j := uint64(0); j < nc; j++ {
			name, err := r.ReadString()
			if err != nil {
				return err
			}
			v, err := r.ReadVarint()
			if err != nil {
				return err
			}
			cs.Find(g, name).SetValue(v)
		}
	}
	return nil
}

func init() {
	wio.Register("org.apache.hadoop.mapred.Counters", func() wio.Writable { return New() })
}

// String renders all counters for logs and reports.
func (cs *Counters) String() string {
	var sb strings.Builder
	for _, g := range cs.Groups() {
		fmt.Fprintf(&sb, "%s\n", g)
		for _, c := range cs.GroupCounters(g) {
			fmt.Fprintf(&sb, "  %s=%d\n", c.Name(), c.Value())
		}
	}
	return sb.String()
}
