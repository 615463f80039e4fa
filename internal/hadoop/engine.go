// Package hadoop is the baseline: a faithful scaled-down reimplementation
// of the Hadoop MapReduce engine's execution flow (paper §3.1). It is not a
// stopwatch model — tasks really serialize map output into sort buffers,
// really sort and spill to local disk files, really merge spill segments,
// really fetch them across the (modelled) network and really run an
// external merge before reducing. The only modelled costs are the ones a
// single process cannot reproduce: per-task JVM startup, heartbeat
// scheduling latency, and network bandwidth (see internal/sim).
//
// Per the paper's description of the HMR engine:
//   - every job starts fresh tasks (no state is retained between jobs),
//   - map output is sorted, spilled and served from local disk,
//   - reducers fetch segments, merge out-of-core, and write replicated
//     output back to the filesystem through an output committer,
//   - no caching exists between the jobs of a sequence.
package hadoop

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/sim"
	"m3r/internal/spill"
)

// Options configures the engine.
type Options struct {
	// FS is the cluster filesystem (normally the simulated HDFS). Required.
	FS dfs.FileSystem
	// Nodes are the compute hosts; they should match the HDFS datanode
	// names for locality to work. Defaults to ["node0"].
	Nodes []string
	// MapSlotsPerNode / ReduceSlotsPerNode bound task concurrency per node
	// (default 2 / 1, Hadoop's classic defaults scaled down).
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	// LocalDir hosts spill and shuffle files. Required.
	LocalDir string
	// Stats and Cost may be nil: the engine then counts into a sink of its
	// own (Engine.Stats) and models no delays.
	Stats *sim.Stats
	Cost  *sim.CostModel
}

// Engine is the Hadoop-style MapReduce engine.
type Engine struct {
	host       *engine.Host
	nodes      []string
	mapSlots   int
	reduceSlot int
	localRoot  string
	cost       *sim.CostModel
}

// New creates a Hadoop engine.
func New(opts Options) (*Engine, error) {
	if opts.FS == nil {
		return nil, fmt.Errorf("hadoop: Options.FS is required")
	}
	if opts.LocalDir == "" {
		return nil, fmt.Errorf("hadoop: Options.LocalDir is required")
	}
	if err := os.MkdirAll(opts.LocalDir, 0o755); err != nil {
		return nil, err
	}
	nodes := opts.Nodes
	if len(nodes) == 0 {
		nodes = []string{"node0"}
	}
	ms := opts.MapSlotsPerNode
	if ms <= 0 {
		ms = 2
	}
	rs := opts.ReduceSlotsPerNode
	if rs <= 0 {
		rs = 1
	}
	cost := opts.Cost
	if cost == nil {
		cost = sim.Zero()
	}
	stats := opts.Stats
	if stats == nil {
		stats = sim.NewStats()
	}
	host := &engine.Host{Name: "hadoop", FSID: dfs.RegisterInstance(opts.FS), FS: opts.FS, Stats: stats}
	host.SetPlaces(len(nodes)) // a node is a place
	e := &Engine{
		host:       host,
		nodes:      nodes,
		mapSlots:   ms,
		reduceSlot: rs,
		localRoot:  opts.LocalDir,
		cost:       cost,
	}
	return e, nil
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.host.Name }

// FileSystem implements engine.Engine, returning the dfs instance id.
func (e *Engine) FileSystem() string { return e.host.FSID }

// Stats returns the engine's statistics sink, never nil.
func (e *Engine) Stats() *sim.Stats { return e.host.Stats }

// Close implements engine.Engine.
func (e *Engine) Close() error {
	if e.host.Shut() {
		dfs.DropInstance(e.host.FSID)
	}
	return nil
}

// Submit implements engine.Engine: it runs one job to completion, fresh
// tasks and all, exactly once per call.
func (e *Engine) Submit(userJob *conf.JobConf) (*engine.Report, error) {
	return e.SubmitControlled(userJob, nil)
}

// SubmitControlled implements engine.LifecycleSubmitter: the job runs
// under lc so a server (or the M3R engine's failover) can kill it or bound
// it with a deadline while it runs. A nil lc gets a private lifecycle,
// which still honours the job's m3r.job.deadline.ms key. The submission's
// envelope — conf, output set-up, verdict, commit — is engine.Job's; what is
// this engine's own is the shuffle's class check, the splits, the job's
// local directory and the two phases.
func (e *Engine) SubmitControlled(userJob *conf.JobConf, lc *engine.JobLifecycle) (*engine.Report, error) {
	j, err := e.host.Open(userJob, lc)
	if err != nil {
		return nil, err
	}
	defer j.Lifecycle.Stop()
	job, rj := j.Conf, j.Resolved
	if !rj.MapOnly && (job.MapOutputKeyClass() == "" || job.MapOutputValueClass() == "") {
		return nil, fmt.Errorf("hadoop: job %q needs map output key/value classes for the shuffle", job.JobName())
	}
	span := j.Begin(engine.PhasePlan, 0)
	splits, err := rj.InputFormat.GetSplits(job, job.GetInt(conf.KeyNumMapTasks, len(e.nodes)*e.mapSlots))
	span.End()
	if err != nil {
		return nil, err
	}
	j.LayOutTasks(len(splits), rj.NumReducers)
	run := &jobRun{engine: e, Job: j, jobDir: filepath.Join(e.localRoot, j.ID)}
	if err := os.MkdirAll(run.jobDir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		span := j.Begin(engine.PhaseCleanup, 0)
		os.RemoveAll(run.jobDir)
		span.End()
	}()

	phase := "map"
	report, err := j.Run(func() error {
		err := run.runMapPhase(splits)
		if err == nil && !rj.MapOnly {
			phase = "reduce"
			// Nothing stands between the phases here: the reducers open
			// what the map tasks left in place.
			j.Begin(engine.PhaseBarrier, 0).End()
			err = run.runReducePhase()
		}
		if err == nil {
			phase = "commit"
		}
		return err
	})
	if err != nil {
		return report, fmt.Errorf("hadoop: %s %s phase: %w", j.ID, phase, err)
	}
	return report, nil
}

// jobRun carries the state of one executing job: its envelope (Codec there
// is the block compression of map-side sort spills and the merged map output
// file; reducers sniff the format per fetched segment, so only writers
// consult it) and what is the Hadoop engine's own.
type jobRun struct {
	engine *Engine
	*engine.Job
	jobDir string

	mu         sync.Mutex
	mapOutputs []*mapOutput // indexed by map task
}

// maxAttempts resolves a task-attempt bound from the job's key: Hadoop's
// classic default of 2 when unset, never below 1.
func (r *jobRun) maxAttempts(key string) int {
	if n := r.Conf.GetInt(key, 0); n >= 1 {
		return n
	}
	return 2
}

const (
	// retryBackoffBase/Cap shape the capped exponential backoff between
	// task attempts: long enough to let a transient fault (a busy disk, a
	// flaky filesystem op) clear, short enough to be invisible in tests.
	retryBackoffBase = 5 * time.Millisecond
	retryBackoffCap  = 100 * time.Millisecond
)

// runAttempts drives one task's bounded re-execution (§2.2 contrast: the
// Hadoop engine is the resilient one): up to maxAttempts attempts with
// capped exponential backoff between them. Cancellation is a verdict, not
// a fault — a cancelled job's task errors are never retried, and the
// backoff sleep itself wakes on kill. Each retry counts toward
// TASK_ATTEMPT_RETRIES.
func (r *jobRun) runAttempts(maxAttempts int, f func(attempt int) error) error {
	var err error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			r.Counters.Incr(counters.JobGroup, counters.TaskAttemptRetries, 1)
			r.engine.Stats().Add(sim.TaskRetries, 1)
			d := retryBackoffBase << (attempt - 1)
			if d > retryBackoffCap {
				d = retryBackoffCap
			}
			select {
			case <-time.After(d):
			case <-r.Lifecycle.Done():
				return r.Lifecycle.Err()
			}
		}
		err = f(attempt)
		if err == nil {
			return nil
		}
		if lcErr := r.Lifecycle.Err(); lcErr != nil {
			return lcErr
		}
	}
	return err
}

// mapOutput records where a completed map task left its sorted output.
type mapOutput struct {
	node string
	file string
	// segments[p] is the byte range of partition p inside file.
	segments []spill.Segment
}

// pendingTask is a schedulable map task.
type pendingTask struct {
	index int
	split formats.InputSplit
}

// taskQueue hands out tasks with locality preference, emulating the
// jobtracker's response to tasktracker heartbeats.
type taskQueue struct {
	mu    sync.Mutex
	tasks []*pendingTask
}

// next pops a task, preferring one whose split is local to node; it
// reports whether the chosen task was node-local.
func (q *taskQueue) next(node string) (*pendingTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return nil, false
	}
	for i, t := range q.tasks {
		for _, h := range t.split.Locations() {
			if h == node {
				q.tasks = append(q.tasks[:i], q.tasks[i+1:]...)
				return t, true
			}
		}
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	return t, false
}

// runMapPhase schedules map tasks onto node slots via heartbeat polling.
func (r *jobRun) runMapPhase(splits []formats.InputSplit) error {
	q := &taskQueue{}
	for i, s := range splits {
		q.tasks = append(q.tasks, &pendingTask{index: i, split: s})
	}
	r.mapOutputs = make([]*mapOutput, len(splits))

	maxAttempts := r.maxAttempts(conf.KeyMaxMapAttempts)
	var wg sync.WaitGroup
	errCh := make(chan error, len(r.engine.nodes)*r.engine.mapSlots)
	for place, node := range r.engine.nodes {
		for slot := 0; slot < r.engine.mapSlots; slot++ {
			wg.Add(1)
			go func(node string) {
				defer wg.Done()
				for {
					// A killed job stops scheduling: in-flight tasks unwind
					// through their own checks, queued ones never start.
					if err := r.Lifecycle.Err(); err != nil {
						errCh <- err
						return
					}
					// Each poll round models one tasktracker heartbeat.
					r.engine.cost.ChargeHeartbeat(r.engine.Stats())
					t, local := q.next(node)
					if t == nil {
						return
					}
					if local {
						r.Counters.Incr(counters.JobGroup, counters.DataLocalMaps, 1)
					}
					err := r.runAttempts(maxAttempts, func(attempt int) error {
						return r.RunTask(engine.MapTask, t.index, attempt, place, t.split, func(ctx *engine.TaskContext) error {
							return r.runMapTask(ctx, t, place, node, attempt)
						})
					})
					if err != nil {
						errCh <- fmt.Errorf("map task %d on %s: %w", t.index, node, err)
						return
					}
				}
			}(node)
		}
	}
	wg.Wait()
	close(errCh)
	return firstError(errCh)
}

// runReducePhase assigns partition p to node p%N and runs reducers under
// the per-node reduce slot limit.
func (r *jobRun) runReducePhase() error {
	type reduceTask struct {
		partition int
		place     int
		node      string
	}
	queues := make(map[string][]reduceTask)
	for p := 0; p < r.Resolved.NumReducers; p++ {
		place := p % len(r.engine.nodes)
		node := r.engine.nodes[place]
		queues[node] = append(queues[node], reduceTask{partition: p, place: place, node: node})
	}
	// Reducers get their own attempt bound — the old code reused the map
	// key here, so mapred.reduce.max.attempts was silently ignored.
	maxAttempts := r.maxAttempts(conf.KeyMaxReduceAttempts)
	var wg sync.WaitGroup
	errCh := make(chan error, r.Resolved.NumReducers)
	for node, tasks := range queues {
		slots := make(chan struct{}, r.engine.reduceSlot)
		for _, t := range tasks {
			wg.Add(1)
			go func(node string, t reduceTask) {
				defer wg.Done()
				slots <- struct{}{}
				defer func() { <-slots }()
				if err := r.Lifecycle.Err(); err != nil {
					errCh <- err
					return
				}
				r.engine.cost.ChargeHeartbeat(r.engine.Stats())
				err := r.runAttempts(maxAttempts, func(attempt int) error {
					return r.RunTask(engine.ReduceTask, t.partition, attempt, t.place, nil, func(ctx *engine.TaskContext) error {
						return r.runReduceTask(ctx, t.partition, t.place, node)
					})
				})
				if err != nil {
					errCh <- fmt.Errorf("reduce task %d on %s: %w", t.partition, node, err)
				}
			}(node, t)
		}
	}
	wg.Wait()
	close(errCh)
	return firstError(errCh)
}

func firstError(ch chan error) error {
	for err := range ch {
		if err != nil {
			return err
		}
	}
	return nil
}
