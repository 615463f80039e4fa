// Package counters implements Hadoop-style job counters: named 64-bit
// accumulators grouped into counter groups, incremented from tasks and
// aggregated into the job report. Both engines keep the standard system
// counters updated (map input/output records, shuffled bytes, spilled
// records, …) alongside user counters, as the paper notes M3R does (§5.3).
//
// A task attempt's set is a Slab — its standard counters on one static
// layout, embedded in the task's context — beside a map, made on first use,
// for the user's counters. A job's set (NewJob) is the same slab and the
// job's own standard counters, allocated with the set, and lists only the
// non-zero ones. Hot per-record paths increment a Slab field directly and
// pay only the atomic add; Incr/Find of a layout name index the slab without
// a lock, and only other names take the mutex. A cell holds only its value:
// the layout names it.
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

// Counter is one accumulator, safe for concurrent use. It holds only its
// value: a set names its counters, those on its slab by the static layout
// and the others by the key of its map.
type Counter struct {
	value atomic.Int64
}

// Value returns the current value.
func (c *Counter) Value() int64 { return c.value.Load() }

// Increment adds amount (which may be negative).
func (c *Counter) Increment(amount int64) { c.value.Add(amount) }

// SetValue overwrites the value.
func (c *Counter) SetValue(v int64) { c.value.Store(v) }

// Named is one counter of a set with its group and name, as GroupCounters
// lists it.
type Named struct {
	*Counter
	group, name string
}

// Group returns the counter's group name.
func (n Named) Group() string { return n.group }

// Name returns the counter's name within its group.
func (n Named) Name() string { return n.name }

// Counters is a concurrent registry of counters keyed by group and name.
type Counters struct {
	mu sync.Mutex
	m  map[key]*Counter // nil until the first counter off the layout
	// slab holds a task or job set's standard counters, layout's rows, and
	// jobCells a job set's own, jobLayout's rows. A task set lists every
	// slab counter; a job set lists only those that are not zero, so its
	// report names what its tasks and the engine touched, as a set of map
	// counters did. A set made by New has neither and keeps every counter
	// in m.
	slab     *Slab
	jobCells *[len(jobLayout)]Counter
}

// key names one counter. One flat map costs a counter set one table
// however many groups it spans.
type key struct{ group, name string }

// New returns an empty counter set whose counters all live in its map: it
// lists every counter something touched, zero or not.
func New() *Counters {
	return &Counters{}
}

// NewJob returns an empty job counter set: the standard counters, a task's
// and the job's own, on cells allocated with the set, and the others in a
// map made on first use. It lists only the counters that are not zero.
func NewJob() *Counters {
	s := new(struct {
		cs   Counters
		slab Slab
		job  [len(jobLayout)]Counter
	})
	s.cs = Counters{slab: &s.slab, jobCells: &s.job}
	return &s.cs
}

// Slab is a task attempt's standard counters, one cell each: the cells
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
// name, in field order. jobLayout names a job set's own cells, which follow
// the slab's rows: row len(layout)+i is jobLayout[i]. layoutIndex maps a
// name back to its row.
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

var jobLayout = [...]key{
	{JobGroup, TotalLaunchedMaps},
	{JobGroup, TotalLaunchedReduces},
	{JobGroup, DataLocalMaps},
}

// layoutRows is the number of layout rows, a task's and a job's.
const layoutRows = len(layout) + len(jobLayout)

var layoutIndex = func() map[key]int {
	m := make(map[key]int, layoutRows)
	for i := range layoutRows {
		m[rowKey(i)] = i
	}
	return m
}()

// rowKey returns the group and name of layout row i.
func rowKey(i int) key {
	if i < len(layout) {
		return layout[i].key
	}
	return jobLayout[i-len(layout)]
}

// taskStatRows is TaskStats resolved onto the layout once: row i's counter
// is layout[taskStatRows[i]]. Every row is a slab counter.
var taskStatRows = func() []int {
	rows := make([]int, len(TaskStats))
	for i, r := range TaskStats {
		j, ok := layoutIndex[key{r.Group, r.Name}]
		if !ok || j >= len(layout) {
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
	*cs = Counters{slab: s}
	return cs
}

// cell returns the set's counter of layout row i, or nil when the set has
// no cell for that row.
func (cs *Counters) cell(i int) *Counter {
	switch {
	case i < len(layout):
		if cs.slab != nil {
			return layout[i].at(cs.slab)
		}
	case cs.jobCells != nil:
		return &cs.jobCells[i-len(layout)]
	}
	return nil
}

// onSlab returns the set's cell for group/name, or nil when the set has no
// cells or the name is not on their layout.
func (cs *Counters) onSlab(group, name string) *Counter {
	if cs.slab == nil {
		return nil
	}
	if i, ok := layoutIndex[key{group, name}]; ok {
		return cs.cell(i)
	}
	return nil
}

// each calls f for every counter the set lists: a task set's whole slab or
// a job set's non-zero cells, then the map. The caller holds mu.
func (cs *Counters) each(f func(key, *Counter)) {
	if cs.slab != nil {
		for i := range layoutRows {
			if c := cs.cell(i); c != nil && (cs.jobCells == nil || c.Value() != 0) {
				f(rowKey(i), c)
			}
		}
	}
	for k, c := range cs.m {
		f(k, c)
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

// inMapLocked returns (creating if necessary) the map's counter group/name.
func (cs *Counters) inMapLocked(group, name string) *Counter {
	k := key{group, name}
	c, ok := cs.m[k]
	if !ok {
		if cs.m == nil {
			cs.m = make(map[key]*Counter)
		}
		c = new(Counter)
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
// report with irrelevant zero entries. Cells add row to row, without a lock.
// Nothing is sorted: the non-zero map counters are gathered under other's
// lock and added under the receiver's, never both at once, so a set may
// merge into itself.
func (cs *Counters) MergeFrom(other *Counters) {
	if other.slab != nil {
		for i := range layoutRows {
			oc := other.cell(i)
			if oc == nil {
				continue
			}
			if v := oc.Value(); v != 0 {
				if c := cs.cell(i); c != nil {
					c.Increment(v)
				} else {
					k := rowKey(i)
					cs.Incr(k.group, k.name, v)
				}
			}
		}
	}
	type entry struct {
		key
		v int64
	}
	var buf [8]entry
	live := buf[:0]
	other.mu.Lock()
	for k, c := range other.m {
		if v := c.Value(); v != 0 {
			live = append(live, entry{k, v})
		}
	}
	other.mu.Unlock()
	if len(live) == 0 {
		return
	}
	for _, e := range live {
		cs.Incr(e.group, e.name, e.v)
	}
}

// Groups returns the sorted group names.
func (cs *Counters) Groups() []string {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var out []string
	cs.each(func(k key, _ *Counter) {
		if !slices.Contains(out, k.group) {
			out = append(out, k.group)
		}
	})
	sort.Strings(out)
	return out
}

// GroupCounters returns the counters of a group sorted by name.
func (cs *Counters) GroupCounters(group string) []Named {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var out []Named
	cs.each(func(k key, c *Counter) {
		if k.group == group {
			out = append(out, Named{c, k.group, k.name})
		}
	})
	slices.SortFunc(out, func(a, b Named) int { return strings.Compare(a.name, b.name) })
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
	for i := range layoutRows {
		if c := cs.cell(i); c != nil {
			c.SetValue(0)
		}
	}
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
