package engine_test

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/types"
)

// recordingFS is a committer filesystem that writes down every call that
// changes it, and can be told to fail the job commit's marker.
type recordingFS struct {
	dfs.FileSystem
	mu          sync.Mutex
	ops         []string
	failSuccess bool
}

var errNoMarker = errors.New("injected: no _SUCCESS")

func (f *recordingFS) record(format string, args ...any) {
	f.mu.Lock()
	f.ops = append(f.ops, fmt.Sprintf(format, args...))
	f.mu.Unlock()
}

func (f *recordingFS) Mkdirs(p string) error {
	f.record("mkdirs %s", p)
	return f.FileSystem.Mkdirs(p)
}

func (f *recordingFS) Create(p string) (io.WriteCloser, error) {
	f.record("create %s", p)
	if f.failSuccess && dfs.Base(p) == formats.SuccessMarker {
		return nil, errNoMarker
	}
	return f.FileSystem.Create(p)
}

func (f *recordingFS) Rename(src, dst string) error {
	f.record("rename %s %s", src, dst)
	return f.FileSystem.Rename(src, dst)
}

func (f *recordingFS) Delete(p string, recursive bool) error {
	f.record("delete %s", p)
	return f.FileSystem.Delete(p, recursive)
}

func newEnvelopeHost(t *testing.T) (*engine.Host, *recordingFS) {
	t.Helper()
	local, err := dfs.NewLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := &recordingFS{FileSystem: local}
	h := &engine.Host{Name: "test", FSID: dfs.RegisterInstance(fs), FS: fs, Stats: sim.NewStats()}
	t.Cleanup(func() { dfs.DropInstance(h.FSID) })
	return h, fs
}

func envelopeJob(out string) *conf.JobConf {
	job := baseJob()
	job.SetJobName("enveloped")
	job.SetOutputFormatClass(formats.TextOutputFormatName)
	job.SetOutputPath(out)
	return job
}

// writeTask is a body of one task that writes one record and commits.
func writeTask(j *engine.Job) error {
	taskJob := j.Conf.CloneJob()
	o, err := j.OpenTaskOutput(taskJob, "attempt_0", "part-00000")
	if err != nil {
		return err
	}
	defer o.Abort()
	if err := o.Write(types.NewText("k"), types.NewInt(1)); err != nil {
		return err
	}
	return o.Commit()
}

func TestEnvelopeVerdicts(t *testing.T) {
	errBody := errors.New("body failed")
	aborted := []string{"mkdirs /out/_temporary", "delete /out/_temporary", "delete /out"}
	cases := []struct {
		name        string
		failSuccess bool
		body        func(j *engine.Job) error
		want        error // nil: the job commits
		wantOps     []string
		wantStat    string
	}{
		{name: "success", body: writeTask, wantOps: []string{
			"mkdirs /out/_temporary",
			"create /out/_temporary/attempt_0/part-00000",
			"rename /out/_temporary/attempt_0/part-00000 /out/part-00000",
			"delete /out/_temporary/attempt_0",
			"delete /out/_temporary",
			"create /out/_SUCCESS",
		}},
		{name: "body error", body: func(*engine.Job) error { return errBody }, want: errBody, wantOps: aborted},
		{name: "killed in the body", want: engine.ErrJobKilled, wantStat: sim.JobsKilled, wantOps: aborted,
			body: func(j *engine.Job) error {
				j.Lifecycle.Kill(nil)
				return errBody // a secondary error of the unwinding tasks
			}},
		{name: "deadline between the last task and the commit", want: engine.ErrDeadlineExceeded,
			wantStat: sim.JobsDeadlineExceeded, wantOps: aborted,
			body: func(j *engine.Job) error {
				j.Lifecycle.Kill(engine.ErrDeadlineExceeded)
				return nil
			}},
		{name: "commit fails", failSuccess: true, body: func(*engine.Job) error { return nil }, want: errNoMarker,
			wantOps: []string{"mkdirs /out/_temporary", "delete /out/_temporary", "create /out/_SUCCESS", "delete /out"}},
		{name: "task killed before its commit", want: engine.ErrJobKilled, wantStat: sim.JobsKilled,
			body: func(j *engine.Job) error {
				o, err := j.OpenTaskOutput(j.Conf.CloneJob(), "attempt_0", "part-00000")
				if err != nil {
					return err
				}
				j.Lifecycle.Kill(nil)
				err = o.Commit()
				o.Abort() // a second abort is nothing
				return err
			},
			wantOps: []string{
				"mkdirs /out/_temporary",
				"create /out/_temporary/attempt_0/part-00000",
				"delete /out/_temporary/attempt_0",
				"delete /out/_temporary",
				"delete /out",
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, fs := newEnvelopeHost(t)
			fs.failSuccess = tc.failSuccess
			notified := 0
			engine.RegisterJobEndCallback(t.Name(), func(string) { notified++ })
			job := envelopeJob("/out")
			job.Set(conf.KeyJobEndNotificationURL, t.Name())
			j, err := h.Open(job, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Lifecycle.Stop()
			if len(fs.ops) != 0 {
				t.Fatalf("Open touched the filesystem: %v", fs.ops)
			}
			rep, err := j.Run(func() error { return tc.body(j) })
			if !slices.Equal(fs.ops, tc.wantOps) {
				t.Errorf("filesystem calls\n got %s\nwant %s", strings.Join(fs.ops, "\n     "), strings.Join(tc.wantOps, "\n     "))
			}
			if tc.want == nil {
				if err != nil {
					t.Fatal(err)
				}
				if notified != 1 || rep.JobID != "job_test_0001" || rep.Engine != "test" || rep.JobName != "enveloped" || rep.Queue != "default" || rep.Counters != j.Counters {
					t.Errorf("notified %d times; report %+v", notified, rep)
				}
				return
			}
			// A failed job still reports, so that its phases can be read.
			if !errors.Is(err, tc.want) || rep == nil || rep.JobID != j.ID || rep.Phases.Places() == 0 || notified != 0 {
				t.Errorf("error %v (want %v), report %v, notified %d times", err, tc.want, rep, notified)
			}
			if tc.wantStat != "" && h.Stats.Get(tc.wantStat) != 1 {
				t.Errorf("%s = %d, want 1", tc.wantStat, h.Stats.Get(tc.wantStat))
			}
			if fs.Exists("/out") {
				t.Error("the failed job left /out behind")
			}
		})
	}
}

// A panic passing through Run still aborts, and an output directory that the
// job's output check tolerates is not the job's to remove.
func TestEnvelopePanicAndForeignOutput(t *testing.T) {
	h, fs := newEnvelopeHost(t)
	if err := fs.FileSystem.Mkdirs("/out"); err != nil {
		t.Fatal(err)
	}
	job := envelopeJob("/out")
	job.SetOutputFormatClass(formats.NullOutputFormatName) // its output check lets /out be
	j, err := h.Open(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Lifecycle.Stop()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the body's panic did not pass through Run")
			}
		}()
		j.Run(func() error { panic("body") })
	}()
	if want := []string{"mkdirs /out/_temporary", "delete /out/_temporary"}; !slices.Equal(fs.ops, want) {
		t.Errorf("filesystem calls %v, want %v", fs.ops, want)
	}
	if !fs.Exists("/out") {
		t.Error("the job removed an output directory it did not make")
	}
}

func TestEnvelopeOpen(t *testing.T) {
	h, fs := newEnvelopeHost(t)
	h.ElideTemp = true

	job := envelopeJob("/out")
	job.Set(conf.KeyM3RSpillCodec, "zstd")
	if _, err := h.Open(job, nil); !errors.Is(err, spill.ErrUnknownCodec) {
		t.Fatalf("unknown codec: %v", err)
	}
	if err := fs.FileSystem.Mkdirs("/taken"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Open(envelopeJob("/taken"), nil); !errors.Is(err, dfs.ErrExists) {
		t.Fatalf("existing output: %v", err)
	}

	// A temporary output on a host that elides them writes nothing; its
	// task outputs are no-ops.
	user := envelopeJob("/" + conf.DefaultTempPrefix + "scratch")
	j, err := h.Open(user, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "job_test_0003" || j.WritesOutput() || j.Conf == user || j.Conf.Get(conf.KeyFSInstance) != h.FSID {
		t.Errorf("job %s: writes output %v, conf shared %v, fs %q", j.ID, j.WritesOutput(), j.Conf == user, j.Conf.Get(conf.KeyFSInstance))
	}
	if _, err := j.Run(func() error { return writeTask(j) }); err != nil {
		t.Fatal(err)
	}
	j.Lifecycle.Stop()
	if len(fs.ops) != 0 {
		t.Errorf("filesystem calls %v, want none", fs.ops)
	}

	if !h.Shut() || h.Shut() {
		t.Error("Shut must report the first close only")
	}
	if _, err := h.Open(envelopeJob("/late"), nil); err == nil || !strings.Contains(err.Error(), "test: engine is closed") {
		t.Errorf("Open on a shut host: %v", err)
	}
}

// TestTaskEnvelope holds RunTask to its order on every way an attempt can
// end: launched once unless the job was already cancelled, the attempt's
// counters absorbed into the host's stats whenever the body ran, and into the
// job's counters only when it succeeded.
func TestTaskEnvelope(t *testing.T) {
	errBody := errors.New("body failed")
	// Every body clones three pairs and bumps a user counter before it ends.
	handle := func(ctx *engine.TaskContext) {
		ctx.Cells.ClonedPairs.Increment(3)
		ctx.IncrCounter("user", "seen", 1)
	}
	for _, tc := range []struct {
		name   string
		kill   bool // before the launch
		body   func(*engine.TaskContext) error
		want   func(error) bool
		ran    bool
		merged bool
	}{
		{name: "success", ran: true, merged: true,
			body: func(ctx *engine.TaskContext) error { handle(ctx); return nil },
			want: func(err error) bool { return err == nil }},
		{name: "body error", ran: true,
			body: func(ctx *engine.TaskContext) error { handle(ctx); return errBody },
			want: func(err error) bool { return errors.Is(err, errBody) }},
		{name: "panic", ran: true,
			body: func(ctx *engine.TaskContext) error { handle(ctx); panic("udf blew up") },
			want: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "reduce task 7 (attempt_job_test_0001_r_000007_2) panicked: udf blew up") &&
					strings.Contains(err.Error(), "envelope_test.go") // the stack
			}},
		{name: "killed before launch", kill: true,
			body: func(ctx *engine.TaskContext) error { handle(ctx); return nil },
			want: func(err error) bool { return errors.Is(err, engine.ErrJobKilled) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, _ := newEnvelopeHost(t)
			j, err := h.Open(envelopeJob("/out"), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Lifecycle.Stop()
			if tc.kill {
				j.Lifecycle.Kill(nil)
			}
			ran := false
			err = j.RunTask(engine.ReduceTask, 7, 2, 0, nil, func(ctx *engine.TaskContext) error {
				ran = true
				if ctx.TaskID != "attempt_job_test_0001_r_000007_2" || ctx.Job == j.Conf || ctx.Job.GetInt(conf.KeyTaskPartition, -1) != 7 {
					t.Errorf("task %s, conf shared %v, partition %s", ctx.TaskID, ctx.Job == j.Conf, ctx.Job.Get(conf.KeyTaskPartition))
				}
				return tc.body(ctx)
			})
			if !tc.want(err) || ran != tc.ran {
				t.Errorf("body ran %v (want %v), error %v", ran, tc.ran, err)
			}
			n := func(b bool, v int64) int64 {
				if b {
					return v
				}
				return 0
			}
			if got, want := h.Stats.Get(sim.TasksLaunched), n(tc.ran, 1); got != want {
				t.Errorf("tasks.launched = %d, want %d", got, want)
			}
			if got, want := j.Counters.Value(counters.JobGroup, counters.TotalLaunchedReduces), n(tc.ran, 1); got != want {
				t.Errorf("TOTAL_LAUNCHED_REDUCES = %d, want %d", got, want)
			}
			if got, want := h.Stats.Get(sim.ClonedPairs), n(tc.ran, 3); got != want {
				t.Errorf("cloned.pairs = %d, want %d", got, want)
			}
			if got, want := j.Counters.Value(counters.M3RGroup, counters.ClonedPairs), n(tc.merged, 3); got != want {
				t.Errorf("CLONED_PAIRS = %d, want %d", got, want)
			}
			if got, want := j.Counters.Value("user", "seen"), n(tc.merged, 1); got != want {
				t.Errorf("user counter = %d, want %d", got, want)
			}
		})
	}
}

// TestAttemptIDs: an attempt's id is Hadoop's
// attempt_<job>_<m|r>_<index, six digits>_<attempt>, the index padded to six
// digits and never cut, and its conf carries the task's partition.
func TestAttemptIDs(t *testing.T) {
	h, _ := newEnvelopeHost(t)
	j, err := h.Open(envelopeJob("/out"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Lifecycle.Stop()
	for _, tc := range []struct {
		kind           engine.TaskKind
		index, attempt int
	}{
		{engine.MapTask, 0, 0}, {engine.MapTask, 7, 1}, {engine.ReduceTask, 42, 0},
		{engine.ReduceTask, 123456, 3}, {engine.MapTask, 1234567, 12},
	} {
		want := fmt.Sprintf("attempt_%s_%c_%06d_%d", j.ID, tc.kind[0], tc.index, tc.attempt)
		err := j.RunTask(tc.kind, tc.index, tc.attempt, 0, nil, func(ctx *engine.TaskContext) error {
			if ctx.TaskID != want {
				t.Errorf("TaskID %q, want %q", ctx.TaskID, want)
			}
			if got := ctx.Job.GetInt(conf.KeyTaskPartition, -1); got != tc.index {
				t.Errorf("%s: task partition %d, want %d", want, got, tc.index)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
