// Package engine holds everything the two MapReduce engines share: the
// Engine interface and job reports, the task context (which implements both
// the old-style Reporter and the new-style Context), the component resolver
// that turns a JobConf's class names into runnable task adapters for either
// API style, and the sort/group machinery that drives reducers.
//
// The shuffle-and-sort path is run-based: map tasks sort their
// per-partition output map-side and ship sorted runs, and the reduce side
// k-way merges the runs with a stable tournament tree of losers
// (MergeIter) instead of re-sorting the whole partition. Standard key
// types resolve to raw comparators (ResolvedJob.SortCmp/RawSortCmp) so
// comparisons skip both deserialization (Hadoop engine spills) and the
// Comparable-interface hop (in-memory merges). Per-record accounting goes
// through TaskContext.Cells — counters resolved once per task into atomic
// cells — rather than locked group/name map lookups.
package engine

import (
	"fmt"
	"sync"
	"time"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/formats"
	"m3r/internal/wio"
)

// Engine runs HMR jobs. Both internal/hadoop and internal/m3r implement it,
// which is the paper's central claim made concrete: the API is independent
// of the engine.
type Engine interface {
	// Name identifies the engine ("hadoop" or "m3r").
	Name() string
	// Submit runs one job to completion and returns its report.
	Submit(job *conf.JobConf) (*Report, error)
	// FileSystem returns the filesystem jobs on this engine read/write.
	FileSystem() string // the dfs instance id engines install into jobs
	// Close releases engine resources.
	Close() error
}

// Report summarizes one completed job.
type Report struct {
	JobID   string
	JobName string
	Engine  string
	// Queue is the administrative job queue the job was submitted to
	// (conf.KeyJobQueueName, "default" when unset) — one of the Hadoop
	// administrative interfaces M3R keeps working (§5.3).
	Queue    string
	Counters *counters.Counters
	Wall     time.Duration
}

// String renders a one-line job summary.
func (r *Report) String() string {
	return fmt.Sprintf("[%s] job %s (%s) finished in %v", r.Engine, r.JobID, r.JobName, r.Wall)
}

// RunSequence submits jobs in order, as an HMR client does for multi-job
// pipelines (each iteration of the paper's matrix-vector example submits
// two jobs). It stops at the first failure.
func RunSequence(e Engine, jobs ...*conf.JobConf) ([]*Report, error) {
	reports := make([]*Report, 0, len(jobs))
	for i, job := range jobs {
		r, err := e.Submit(job)
		if err != nil {
			return reports, fmt.Errorf("engine: job %d (%s): %w", i, job.JobName(), err)
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// TaskContext is the per-task service object. It implements
// mapred.Reporter, mapreduce.MapContext and mapreduce.ReduceContext, so a
// single context flows through either API's adapters.
type TaskContext struct {
	Job      *conf.JobConf
	Counters *counters.Counters
	Split    formats.InputSplit
	TaskID   string

	// Cells holds the hot-path counters, resolved once at task start so
	// per-record accounting is a single atomic add instead of a locked
	// group/name map lookup per increment.
	Cells CounterCells

	mu     sync.Mutex
	status string
	emit   func(key, value wio.Writable) error
}

// CounterCells is the set of per-record counters both engines update on
// their hottest paths. TaskContext resolves them eagerly; everything else
// (per-task launch counters, user counters) still goes through IncrCounter.
type CounterCells struct {
	MapInputRecords     *counters.Counter
	MapOutputRecords    *counters.Counter
	MapOutputBytes      *counters.Counter
	CombineInputRecords *counters.Counter
	ReduceInputGroups   *counters.Counter
	ReduceInputRecords  *counters.Counter
	ReduceOutputRecords *counters.Counter
	SpilledRecords      *counters.Counter
	SpilledRuns         *counters.Counter
	SpilledBytes        *counters.Counter
	SpilledRawBytes     *counters.Counter
	BudgetReleasedBytes *counters.Counter
	PoolContendedBytes  *counters.Counter
	EvictedResidentRuns *counters.Counter
	LocalShufflePairs   *counters.Counter
	RemoteShufflePairs  *counters.Counter
	ClonedPairs         *counters.Counter
	AliasedPairs        *counters.Counter
}

// resolve points every cell at a counter of a new set and returns the set.
func (c *CounterCells) resolve() *counters.Counters {
	return counters.NewCells([]counters.Cell{
		{Group: counters.TaskGroup, Name: counters.MapInputRecords, Ptr: &c.MapInputRecords},
		{Group: counters.TaskGroup, Name: counters.MapOutputRecords, Ptr: &c.MapOutputRecords},
		{Group: counters.TaskGroup, Name: counters.MapOutputBytes, Ptr: &c.MapOutputBytes},
		{Group: counters.TaskGroup, Name: counters.CombineInputRecords, Ptr: &c.CombineInputRecords},
		{Group: counters.TaskGroup, Name: counters.ReduceInputGroups, Ptr: &c.ReduceInputGroups},
		{Group: counters.TaskGroup, Name: counters.ReduceInputRecords, Ptr: &c.ReduceInputRecords},
		{Group: counters.TaskGroup, Name: counters.ReduceOutputRecords, Ptr: &c.ReduceOutputRecords},
		{Group: counters.TaskGroup, Name: counters.SpilledRecords, Ptr: &c.SpilledRecords},
		{Group: counters.M3RGroup, Name: counters.SpilledRuns, Ptr: &c.SpilledRuns},
		{Group: counters.M3RGroup, Name: counters.SpilledBytes, Ptr: &c.SpilledBytes},
		{Group: counters.M3RGroup, Name: counters.SpilledRawBytes, Ptr: &c.SpilledRawBytes},
		{Group: counters.M3RGroup, Name: counters.BudgetReleasedBytes, Ptr: &c.BudgetReleasedBytes},
		{Group: counters.M3RGroup, Name: counters.PoolContendedBytes, Ptr: &c.PoolContendedBytes},
		{Group: counters.M3RGroup, Name: counters.EvictedResidentRuns, Ptr: &c.EvictedResidentRuns},
		{Group: counters.M3RGroup, Name: counters.LocalShufflePairs, Ptr: &c.LocalShufflePairs},
		{Group: counters.M3RGroup, Name: counters.RemoteShufflePairs, Ptr: &c.RemoteShufflePairs},
		{Group: counters.M3RGroup, Name: counters.ClonedPairs, Ptr: &c.ClonedPairs},
		{Group: counters.M3RGroup, Name: counters.AliasedPairs, Ptr: &c.AliasedPairs},
	})
}

// NewTaskContext builds a context for one task attempt. Its cells are
// resolved in one pass into one allocation (counters.NewCells).
func NewTaskContext(job *conf.JobConf, taskID string, split formats.InputSplit) *TaskContext {
	c := &TaskContext{Job: job, Split: split, TaskID: taskID}
	c.Counters = c.Cells.resolve()
	return c
}

// SetEmit installs the sink Write forwards to.
func (c *TaskContext) SetEmit(emit func(key, value wio.Writable) error) { c.emit = emit }

// Progress implements Reporter/Context (a no-op liveness signal here).
func (c *TaskContext) Progress() {}

// SetStatus implements Reporter/Context.
func (c *TaskContext) SetStatus(s string) {
	c.mu.Lock()
	c.status = s
	c.mu.Unlock()
}

// Status returns the last status string set by the task.
func (c *TaskContext) Status() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// IncrCounter implements mapred.Reporter.
func (c *TaskContext) IncrCounter(group, name string, amount int64) {
	c.Counters.Incr(group, name, amount)
}

// Counter implements mapred.Reporter and mapreduce.Context.
func (c *TaskContext) Counter(group, name string) *counters.Counter {
	return c.Counters.Find(group, name)
}

// InputSplit implements mapred.Reporter and mapreduce.MapContext.
func (c *TaskContext) InputSplit() formats.InputSplit { return c.Split }

// Configuration implements mapreduce.Context.
func (c *TaskContext) Configuration() *conf.JobConf { return c.Job }

// Write implements mapreduce.Context.
func (c *TaskContext) Write(key, value wio.Writable) error {
	if c.emit == nil {
		return fmt.Errorf("engine: task %s has no output sink", c.TaskID)
	}
	return c.emit(key, value)
}

// Job-end notification support (§5.3: "M3R also supports many Hadoop
// administrative interfaces including ... job end notification urls").
// Callbacks register in-process by name; jobs reference the name through
// conf.KeyJobEndNotificationURL.

var (
	notifyMu        sync.Mutex
	notifyCallbacks = make(map[string]func(jobID string))
)

// RegisterJobEndCallback installs fn under name.
func RegisterJobEndCallback(name string, fn func(jobID string)) {
	notifyMu.Lock()
	notifyCallbacks[name] = fn
	notifyMu.Unlock()
}

// NotifyJobEnd fires the job's configured end notification, if any.
func NotifyJobEnd(job *conf.JobConf, jobID string) {
	if cb := job.Get(conf.KeyJobEndNotificationURL); cb != "" {
		notifyMu.Lock()
		fn := notifyCallbacks[cb]
		notifyMu.Unlock()
		if fn != nil {
			fn(jobID)
		}
	}
}
