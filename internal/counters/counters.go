// Package counters implements Hadoop-style job counters: named 64-bit
// accumulators grouped into counter groups, incremented from tasks and
// aggregated into the job report. Both engines keep the standard system
// counters updated (map input/output records, shuffled bytes, spilled
// records, …) alongside user counters, as the paper notes M3R does (§5.3).
//
// A job's set is a map. A task attempt's set is a Slab — its standard
// counters on one static layout, embedded in the task's context — beside a
// map, made on first use, for the user's counters. Hot per-record paths
// increment a Slab field directly and pay only the atomic add; Incr/Find of
// a layout name index the slab without a lock, and only other names take
// the mutex.
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
	// the place's shuffle pool failed: the pool's limit or the job's own
	// cap within it filling up. A contended run may still end up resident
	// if the largest-first policy evicted room for it.
	PoolContendedBytes = "POOL_CONTENDED_BYTES"
	// EvictedResidentRuns counts cold resident runs the largest-first spill
	// policy re-spilled to disk to admit a smaller contended run (they are
	// also counted in SPILLED_RUNS/SPILLED_BYTES like any other spill).
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
	m  map[key]*Counter // nil until the first counter off the slab
	// slab holds a task set's standard counters; nil in a job set, whose
	// counters all live in m, so it lists only those something touched.
	slab *Slab
}

// key names one counter. One flat map costs a counter set one table
// however many groups it spans.
type key struct{ group, name string }

// New returns an empty counter set.
func New() *Counters {
	return &Counters{}
}

// Slab is a task attempt's standard counters, one field each: the cells
// both engines update per record, and the counters tasks Incr by name.
// layout gives each field's group and name.
type Slab struct {
	MapInputRecords     Counter
	MapOutputRecords    Counter
	MapOutputBytes      Counter
	CombineInputRecords Counter
	ReduceInputGroups   Counter
	ReduceInputRecords  Counter
	ReduceOutputRecords Counter
	SpilledRecords      Counter
	SpilledRuns         Counter
	SpilledBytes        Counter
	SpilledRawBytes     Counter
	BudgetReleasedBytes Counter
	PoolContendedBytes  Counter
	EvictedResidentRuns Counter
	LocalShufflePairs   Counter
	RemoteShufflePairs  Counter
	ClonedPairs         Counter
	AliasedPairs        Counter

	CacheHitSplits       Counter
	CacheMissSplits      Counter
	TempOutputsElided    Counter
	DedupHits            Counter
	NetFrames            Counter
	NetBytes             Counter
	RemoteShuffleBytes   Counter
	ReduceShuffleBytes   Counter
	CombineOutputRecords Counter
}

// layout is the static layout of a Slab: every field with its group and
// name, in field order. layoutIndex maps a name back to its row.
var layout = [...]struct {
	key
	at func(*Slab) *Counter
}{
	{key{TaskGroup, MapInputRecords}, func(s *Slab) *Counter { return &s.MapInputRecords }},
	{key{TaskGroup, MapOutputRecords}, func(s *Slab) *Counter { return &s.MapOutputRecords }},
	{key{TaskGroup, MapOutputBytes}, func(s *Slab) *Counter { return &s.MapOutputBytes }},
	{key{TaskGroup, CombineInputRecords}, func(s *Slab) *Counter { return &s.CombineInputRecords }},
	{key{TaskGroup, ReduceInputGroups}, func(s *Slab) *Counter { return &s.ReduceInputGroups }},
	{key{TaskGroup, ReduceInputRecords}, func(s *Slab) *Counter { return &s.ReduceInputRecords }},
	{key{TaskGroup, ReduceOutputRecords}, func(s *Slab) *Counter { return &s.ReduceOutputRecords }},
	{key{TaskGroup, SpilledRecords}, func(s *Slab) *Counter { return &s.SpilledRecords }},
	{key{M3RGroup, SpilledRuns}, func(s *Slab) *Counter { return &s.SpilledRuns }},
	{key{M3RGroup, SpilledBytes}, func(s *Slab) *Counter { return &s.SpilledBytes }},
	{key{M3RGroup, SpilledRawBytes}, func(s *Slab) *Counter { return &s.SpilledRawBytes }},
	{key{M3RGroup, BudgetReleasedBytes}, func(s *Slab) *Counter { return &s.BudgetReleasedBytes }},
	{key{M3RGroup, PoolContendedBytes}, func(s *Slab) *Counter { return &s.PoolContendedBytes }},
	{key{M3RGroup, EvictedResidentRuns}, func(s *Slab) *Counter { return &s.EvictedResidentRuns }},
	{key{M3RGroup, LocalShufflePairs}, func(s *Slab) *Counter { return &s.LocalShufflePairs }},
	{key{M3RGroup, RemoteShufflePairs}, func(s *Slab) *Counter { return &s.RemoteShufflePairs }},
	{key{M3RGroup, ClonedPairs}, func(s *Slab) *Counter { return &s.ClonedPairs }},
	{key{M3RGroup, AliasedPairs}, func(s *Slab) *Counter { return &s.AliasedPairs }},
	{key{M3RGroup, CacheHitSplits}, func(s *Slab) *Counter { return &s.CacheHitSplits }},
	{key{M3RGroup, CacheMissSplits}, func(s *Slab) *Counter { return &s.CacheMissSplits }},
	{key{M3RGroup, TempOutputsElided}, func(s *Slab) *Counter { return &s.TempOutputsElided }},
	{key{M3RGroup, DedupHits}, func(s *Slab) *Counter { return &s.DedupHits }},
	{key{M3RGroup, NetFrames}, func(s *Slab) *Counter { return &s.NetFrames }},
	{key{M3RGroup, NetBytes}, func(s *Slab) *Counter { return &s.NetBytes }},
	{key{TaskGroup, RemoteShuffleBytes}, func(s *Slab) *Counter { return &s.RemoteShuffleBytes }},
	{key{TaskGroup, ReduceShuffleBytes}, func(s *Slab) *Counter { return &s.ReduceShuffleBytes }},
	{key{TaskGroup, CombineOutputRecords}, func(s *Slab) *Counter { return &s.CombineOutputRecords }},
}

var layoutIndex = func() map[key]int {
	m := make(map[key]int, len(layout))
	for i, l := range layout {
		m[l.key] = i
	}
	return m
}()

// taskStatRows is TaskStats resolved onto the layout once: row i's counter
// is layout[taskStatRows[i]]. Every row is a slab counter.
var taskStatRows = func() []int {
	rows := make([]int, len(TaskStats))
	for i, r := range TaskStats {
		j, ok := layoutIndex[key{r.Group, r.Name}]
		if !ok {
			panic(fmt.Sprintf("counters: TaskStats row %s/%s is not on the slab", r.Group, r.Name))
		}
		rows[i] = j
	}
	return rows
}()

// TaskStat returns the value in s of the counter TaskStats' row i names: a
// field load, not a lookup by name.
func (s *Slab) TaskStat(i int) int64 { return layout[taskStatRows[i]].at(s).Value() }

// TaskSet makes cs a task attempt's counter set over the zero Slab s. The
// caller embeds both (engine.TaskContext does), so the set costs no
// allocation of its own; user counters go in a map made on first use.
func TaskSet(cs *Counters, s *Slab) *Counters {
	for _, l := range layout {
		c := l.at(s)
		c.group, c.name = l.group, l.name
	}
	*cs = Counters{slab: s}
	return cs
}

// onSlab returns the slab counter group/name, or nil when the set has no
// slab or the name is not on its layout.
func (cs *Counters) onSlab(group, name string) *Counter {
	if cs.slab == nil {
		return nil
	}
	if i, ok := layoutIndex[key{group, name}]; ok {
		return layout[i].at(cs.slab)
	}
	return nil
}

// each calls f for every counter of the set: a task set's whole slab, then
// the map. The caller holds mu.
func (cs *Counters) each(f func(*Counter)) {
	if cs.slab != nil {
		for _, l := range layout {
			f(l.at(cs.slab))
		}
	}
	for _, c := range cs.m {
		f(c)
	}
}

// Find returns (creating if necessary) the counter group/name.
func (cs *Counters) Find(group, name string) *Counter {
	if c := cs.onSlab(group, name); c != nil {
		return c
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.inMapLocked(group, name)
}

func (cs *Counters) findLocked(group, name string) *Counter {
	if c := cs.onSlab(group, name); c != nil {
		return c
	}
	return cs.inMapLocked(group, name)
}

// inMapLocked returns (creating if necessary) the map's counter group/name.
func (cs *Counters) inMapLocked(group, name string) *Counter {
	k := key{group, name}
	c, ok := cs.m[k]
	if !ok {
		if cs.m == nil {
			cs.m = make(map[key]*Counter)
		}
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
	if c := cs.onSlab(group, name); c != nil {
		return c.Value()
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if c, ok := cs.m[key{group, name}]; ok {
		return c.Value()
	}
	return 0
}

// MergeFrom adds every non-zero counter in other into the receiver.
// Engines use it to aggregate per-task counters into the job total.
// Zero-valued counters are skipped: a task set's slab holds every standard
// counter, most of which a given task never touches — e.g. the M3R shuffle
// cells in a Hadoop-engine task — and merging them would pad every job
// report with irrelevant zero entries. Nothing is sorted: the non-zero
// counters are gathered under other's lock and added under the receiver's,
// never both at once, so a set may merge into itself.
func (cs *Counters) MergeFrom(other *Counters) {
	var buf [32]*Counter
	live := buf[:0]
	other.mu.Lock()
	other.each(func(c *Counter) {
		if c.Value() != 0 {
			live = append(live, c)
		}
	})
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
	cs.each(func(c *Counter) {
		if !slices.Contains(out, c.group) {
			out = append(out, c.group)
		}
	})
	sort.Strings(out)
	return out
}

// GroupCounters returns the counters of a group sorted by name.
func (cs *Counters) GroupCounters(group string) []*Counter {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var out []*Counter
	cs.each(func(c *Counter) {
		if c.group == group {
			out = append(out, c)
		}
	})
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

// ReadFields implements wio.Writable. A task set keeps its slab, zeroed.
func (cs *Counters) ReadFields(r *wio.Reader) error {
	cs.mu.Lock()
	cs.each(func(c *Counter) { c.SetValue(0) })
	cs.m = nil
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
