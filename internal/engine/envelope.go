package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/formats"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/wio"
)

// The job envelope is what a submission means on either engine: what its
// conf becomes, when its output is set up, what verdict it ends with and what
// a failure leaves behind. An engine opens a Job on its Host, plans, and runs
// its phases as the body of Job.Run (DESIGN.md "Job lifecycle" has the order).

// Host is what an engine is to the envelope, built once in the engine's New.
type Host struct {
	Name      string         // Engine.Name, and the infix of the job ids
	FSID      string         // the dfs instance id installed into every job
	FS        dfs.FileSystem // job output is committed through it
	Stats     *sim.Stats
	ElideTemp bool // a temporary output (§4.2.3) is never written to FS

	mu     sync.Mutex
	seq    int
	closed bool

	places int               // SetPlaces
	labels []context.Context // a phase at a place's profiler labels, place*NumPhases + phase
}

// Shut refuses further submissions and reports whether this call was the
// first to.
func (h *Host) Shut() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	first := !h.closed
	h.closed = true
	return first
}

// Job is one submission inside the envelope.
type Job struct {
	ID        string
	Conf      *conf.JobConf // the submission's private copy of the client's
	Resolved  *ResolvedJob
	Codec     spill.Codec // conf.KeyM3RSpillCodec
	Lifecycle *JobLifecycle
	Counters  *counters.Counters

	host       *Host
	start      time.Time
	phases     Phases
	attempt    string                       // "attempt_<ID>_", the prefix of its task attempts' ids
	ids        Strings                      // the bytes its attempts' ids are cut from
	attempts   []taskAttempt                // the first attempts' storage, maps then reduces (LayOutTasks)
	maps       int                          // the map tasks' share of attempts
	outputSpec formats.OutputFormat         // the instance whose CheckOutputSpecs admitted the job
	committer  *formats.FileOutputCommitter // nil when the job writes no output
}

// Open admits a submission: a job id unless the host is shut, the private
// conf, the deadline armed, the job resolved, its output spec and spill codec
// checked. Nothing is on the filesystem yet, so a failure here, or in the
// engine's planning before Run, has nothing to undo; the engine defers
// Lifecycle.Stop.
func (h *Host) Open(userJob *conf.JobConf, lc *JobLifecycle) (*Job, error) {
	start := time.Now()
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, fmt.Errorf("%s: engine is closed", h.Name)
	}
	h.seq++
	seq := h.seq
	h.mu.Unlock()
	// The job's id, job_<engine>_<seq, four digits>, is the middle of its
	// attempts' prefix, attempt_<id>_: one string for both.
	var buf [64]byte
	b := append(append(append(buf[:0], "attempt_job_"...), h.Name...), '_')
	for w := 1000; w > 1 && seq < w; w /= 10 {
		b = append(b, '0')
	}
	attempt := string(append(strconv.AppendInt(b, int64(seq), 10), '_'))
	id := attempt[len("attempt_") : len(attempt)-1]

	// The client's conf is copied at submission, as JobClient.submitJob
	// writes job.xml (§3.1), with the carrier's defaults and the job's
	// filesystem in the same map, which its tasks' confs then share.
	defaults, err := conf.EnvDefaults()
	if err != nil {
		return nil, err
	}
	job := userJob.CloneJobWith(defaults, conf.KeyFSInstance, h.FSID)
	if lc == nil {
		lc = NewJobLifecycle()
	}
	lc.ApplyDeadlineConf(job)
	j := &Job{ID: id, Conf: job, Lifecycle: lc, Counters: counters.NewJob(), host: h, start: start, attempt: attempt}
	h.initPhases(&j.phases, start)
	if j.Resolved, err = Resolve(job); err == nil {
		if j.outputSpec, err = j.Resolved.NewOutputFormat(); err == nil {
			err = j.outputSpec.CheckOutputSpecs(job)
		}
	}
	if err == nil {
		j.Codec, err = spill.ParseCodec(job.Get(conf.KeyM3RSpillCodec))
	}
	if err != nil {
		lc.Stop()
		return nil, err
	}
	if out := job.OutputPath(); out != "" && !(h.ElideTemp && job.IsTemporaryOutput(out)) {
		j.committer = formats.NewFileOutputCommitter(h.FS)
	}
	return j, nil
}

// WritesOutput reports whether the job's output goes through the committer.
func (j *Job) WritesOutput() bool { return j.committer != nil }

// Run sets the output up, runs body — the engine's phases — and decides the
// job: committed, notified and reported, or aborted with nothing of it left
// on the filesystem. Either way it returns the job's Report, whose Phases a
// failed job's caller may read; its Counters are the committed tasks'.
// Nothing fallible stands between the set-up and the body,
// and every way out after the set-up that is not a commit is an abort: body
// error, commit error, a panic passing through. The error is the body's or
// the commit's, or in their place the cancellation cause when the job was
// killed or timed out, whatever secondary error the unwinding tasks surfaced
// (errors.Is against ErrJobKilled / ErrDeadlineExceeded must hold); the
// engine adds its own prefix.
func (j *Job) Run(body func() error) (*Report, error) {
	committed := false
	if j.committer != nil {
		defer func() {
			if committed {
				return
			}
			j.committer.AbortJob(j.Conf)
			// The output check passed at Open. If it now finds the output
			// path taken, what is there is this job's — the directory and
			// whatever its tasks committed — and goes, so that the corrected
			// job can be submitted to the same path.
			if errors.Is(j.outputSpec.CheckOutputSpecs(j.Conf), dfs.ErrExists) {
				j.host.FS.Delete(dfs.CleanPath(j.Conf.OutputPath()), true)
			}
		}()
		if err := j.committer.SetupJob(j.Conf); err != nil {
			return j.report(), err
		}
	}
	err := body()
	if err == nil {
		// The commit is the one irrevocable step: a kill that lands after the
		// last task still prevents it.
		err = j.Lifecycle.Err()
	}
	if err == nil && j.committer != nil {
		span := j.Begin(PhaseCommit, 0)
		err = j.committer.CommitJob(j.Conf)
		span.End()
	}
	if err != nil {
		if cause := j.Lifecycle.Err(); cause != nil {
			err = cause
			if errors.Is(cause, ErrDeadlineExceeded) {
				j.host.Stats.Add(sim.JobsDeadlineExceeded, 1)
			} else {
				j.host.Stats.Add(sim.JobsKilled, 1)
			}
		}
		return j.report(), err
	}
	committed = true
	NotifyJobEnd(j.Conf, j.ID)
	return j.report(), nil
}

// report is the job's Report as it stands.
func (j *Job) report() *Report {
	return &Report{
		JobID:    j.ID,
		JobName:  j.Conf.JobName(),
		Engine:   j.host.Name,
		Queue:    j.Conf.GetDefault(conf.KeyJobQueueName, "default"),
		Counters: j.Counters,
		Wall:     time.Since(j.start),
		Phases:   j.phases,
	}
}

// TaskKind names a task's kind; its first letter stands for it in attempt ids.
type TaskKind string

const (
	MapTask    TaskKind = "map"
	ReduceTask TaskKind = "reduce"
)

// RunTask is what one task attempt means on either engine. A cancelled job
// launches nothing. Otherwise the attempt is counted as launched — every
// attempt, Hadoop's semantics — and gets its id, its private conf (an engine
// adds its own keys through ctx.Job) and its context; body runs under the one
// guard that turns a UDF's panic into an error naming the attempt; and on
// every way out the attempt's counters are absorbed: the rows of
// counters.TaskStats into the engine's stats always — a failed or killed
// attempt still reports what it handled — and all of them into the job's
// counters on success only. The attempt is one span of its kind's phase at
// place.
func (j *Job) RunTask(kind TaskKind, index, attempt, place int, split formats.InputSplit, body func(*TaskContext) error) (err error) {
	if err := j.Lifecycle.Err(); err != nil {
		return err
	}
	launched, phase := counters.TotalLaunchedMaps, PhaseMap
	if kind == ReduceTask {
		launched, phase = counters.TotalLaunchedReduces, PhaseReduce
	}
	j.Counters.Incr(counters.JobGroup, launched, 1)
	j.host.Stats.Add(sim.TasksLaunched, 1)
	// The context and the attempt's conf are one piece: the job's, or one
	// allocation.
	t := j.newAttempt(kind, index, attempt)
	taskJob := t.conf.Of(j.Conf)
	taskJob.SetInt(conf.KeyTaskPartition, index)
	ctx := t.ctx.init(taskJob, j.attemptID(kind, index, attempt), split)
	ctx.phases, ctx.cell = &j.phases, cellOf(place, phase)
	span := j.phases.begin(ctx.cell, -1)
	defer func() {
		span.End()
		if p := recover(); p != nil {
			err = fmt.Errorf("%s task %d (%s) panicked: %v\n%s", kind, index, ctx.TaskID, p, debug.Stack())
		}
		for i, row := range counters.TaskStats {
			if n := ctx.Cells.TaskStat(i); n != 0 {
				j.host.Stats.Add(row.Stat, n)
			}
		}
		if err == nil {
			j.Counters.MergeFrom(ctx.Counters)
		}
	}()
	return body(ctx)
}

// taskAttempt is the storage of one attempt: its context and, beside it,
// its conf. taken marks a slot of the job's layout that an attempt has.
type taskAttempt struct {
	ctx   TaskContext
	conf  conf.JobClone
	taken atomic.Bool
}

// LayOutTasks lays out the storage of the first attempt of each of the
// job's maps map tasks and reduces reduce tasks, which RunTask then takes
// from the job instead of allocating it; the storage dies with the job. An
// engine calls it once its plan knows the counts. A retry, or a task beyond
// them, allocates its own.
func (j *Job) LayOutTasks(maps, reduces int) {
	j.attempts = make([]taskAttempt, maps+reduces)
	j.maps = maps
	// A first attempt's id below index 10^6 is the prefix, a kind letter, a
	// six-digit index, one attempt digit and three underscores' worth.
	j.ids.Grow((maps + reduces) * (len(j.attempt) + 10))
}

// newAttempt returns the storage of an attempt: the task's slot in the
// job's layout for its first attempt, the first time it is asked for, and
// a fresh allocation otherwise.
func (j *Job) newAttempt(kind TaskKind, index, attempt int) *taskAttempt {
	i, end := index, j.maps
	if kind == ReduceTask {
		i, end = j.maps+index, len(j.attempts)
	}
	if attempt == 0 && index >= 0 && i < end {
		if t := &j.attempts[i]; t.taken.CompareAndSwap(false, true) {
			return t
		}
	}
	return new(taskAttempt)
}

// attemptID is Hadoop's attempt id, attempt_<job>_<m|r>_<index, six digits>_<attempt>,
// cut from the job's id bytes.
func (j *Job) attemptID(kind TaskKind, index, attempt int) string {
	var buf [64]byte
	b := append(buf[:0], j.attempt...)
	b = append(b, kind[0], '_')
	for w := 100000; w > 1 && index < w; w /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(index), 10)
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(attempt), 10)
	return j.ids.Cut(b)
}

// Strings is where a job keeps strings of its own bookkeeping — its
// attempts' ids, its splits' store paths, its part files' paths: cut from
// chunks of bytes, one allocation a chunk rather than one a string. Grow
// sizes a chunk for what the owner knows is coming; a string that does not
// fit starts a further chunk of stringsChunk bytes. A chunk is only ever
// appended to, so a string cut from it never changes, and it lives as long
// as any string cut from it does. Safe for concurrent use.
type Strings struct {
	mu sync.Mutex
	b  strings.Builder
}

const stringsChunk = 256

// Grow starts a chunk with room for n bytes.
func (s *Strings) Grow(n int) {
	s.mu.Lock()
	s.b = strings.Builder{}
	s.b.Grow(n)
	s.mu.Unlock()
}

// Cut returns b as a string in the current chunk.
func (s *Strings) Cut(b []byte) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.b.Cap()-s.b.Len() < len(b) {
		s.b = strings.Builder{}
		s.b.Grow(max(stringsChunk, len(b)))
	}
	n := s.b.Len()
	s.b.Write(b)
	return s.b.String()[n:]
}

// TaskOutput is one task attempt's output under the job's committer: written
// into the attempt's own work directory, promoted by Commit. Every method is
// a no-op for a job that writes no output.
type TaskOutput struct {
	j       *Job
	taskJob *conf.JobConf
	attempt string
	w       formats.RecordWriter // nil once committed or aborted
}

// OpenTaskOutput binds the attempt's work directory into taskJob and opens
// the output format's record writer for fileName in it.
func (j *Job) OpenTaskOutput(taskJob *conf.JobConf, attempt, fileName string) (*TaskOutput, error) {
	o := new(TaskOutput)
	if err := j.InitTaskOutput(o, taskJob, attempt, fileName); err != nil {
		return nil, err
	}
	return o, nil
}

// InitTaskOutput is OpenTaskOutput into o, for a task that holds its output
// by value. On error o writes nothing, so Commit and Abort are no-ops.
func (j *Job) InitTaskOutput(o *TaskOutput, taskJob *conf.JobConf, attempt, fileName string) error {
	*o = TaskOutput{j: j, taskJob: taskJob, attempt: attempt}
	if j.committer == nil {
		return nil
	}
	j.committer.SetupTask(taskJob, attempt)
	outputFormat, err := j.Resolved.NewOutputFormat()
	if err == nil {
		o.w, err = outputFormat.GetRecordWriter(taskJob, fileName)
	}
	if err != nil {
		o.w = nil
		j.committer.AbortTask(taskJob, attempt)
		return err
	}
	return nil
}

// Write appends one record.
func (o *TaskOutput) Write(k, v wio.Writable) error {
	if o.w == nil {
		return nil
	}
	return o.w.Write(k, v)
}

// Commit closes the writer and promotes the attempt's files — unless the job
// was cancelled meanwhile: a kill racing a task's tail aborts the attempt, so
// it never half-publishes. A failed Commit has aborted.
func (o *TaskOutput) Commit() error {
	if o.w == nil {
		return nil
	}
	err := o.w.Close()
	o.w = nil
	if err == nil {
		err = o.j.Lifecycle.Err()
	}
	if err == nil {
		err = o.j.committer.CommitTask(o.taskJob, o.attempt)
	}
	if err != nil {
		o.j.committer.AbortTask(o.taskJob, o.attempt)
	}
	return err
}

// Abort closes the writer and discards the attempt's work directory. It does
// nothing after a Commit or a first Abort, so a task may defer it.
func (o *TaskOutput) Abort() {
	if o.w == nil {
		return
	}
	o.w.Close()
	o.w = nil
	o.j.committer.AbortTask(o.taskJob, o.attempt)
}
