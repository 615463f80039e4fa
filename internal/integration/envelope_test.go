package integration_test

import (
	"errors"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/hadoop"
	"m3r/internal/lab"
	"m3r/internal/m3r"
	"m3r/internal/mapred"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// The job envelope (engine.Job) is what a submission means on either engine.
// This table breaks a job at every step of it, on the Hadoop engine and on
// M3R with and without a shuffle budget, and asks the same of each: the same
// class of error, nothing of the job left behind — on the filesystem, in the
// cache, in the pool, as an open stream or a goroutine — and, what the user
// sees, that the corrected job submitted to the same output path succeeds.

// What envelopeMapper and envelopeReducer do at each call while their probe
// says so.
const (
	faultNone int32 = iota
	faultError
	faultPanic
	faultSleep // outlive the job's deadline
	faultGate  // signal reached, then block until released
)

var errEnvelopeTask = errors.New("injected task failure")
var errEnvelopeCreate = errors.New("injected create failure")

// envelopeProbe is what one table row shares with its job's tasks and with
// the filesystem under the engines.
type envelopeProbe struct {
	mapFault, reduceFault atomic.Int32

	reached, release chan struct{}
	once             sync.Once

	// failSuccess fails the creation of the job commit's _SUCCESS marker.
	failSuccess atomic.Bool
	// killAtCommit, when set, is killed inside the rename that commits the
	// job's commitsLeft-th task: after the last task's own kill check and
	// before the job commit's.
	killAtCommit *engine.JobLifecycle
	commitsLeft  atomic.Int32
}

func newEnvelopeProbe() *envelopeProbe {
	return &envelopeProbe{reached: make(chan struct{}), release: make(chan struct{})}
}

func (p *envelopeProbe) at(fault int32) error {
	switch fault {
	case faultError:
		return errEnvelopeTask
	case faultPanic:
		panic("injected task panic")
	case faultSleep:
		time.Sleep(300 * time.Millisecond)
	case faultGate:
		p.once.Do(func() { close(p.reached) })
		<-p.release
	}
	return nil
}

var envelopeProbes sync.Map // test.envelope.id -> *envelopeProbe

func envelopeProbeOf(job *conf.JobConf) *envelopeProbe {
	if v, ok := envelopeProbes.Load(job.Get("test.envelope.id")); ok {
		return v.(*envelopeProbe)
	}
	return newEnvelopeProbe() // the corrected job: no faults
}

type envelopeMapper struct {
	mapred.Base
	p *envelopeProbe
}

func (m *envelopeMapper) Configure(job *conf.JobConf) { m.p = envelopeProbeOf(job) }

func (m *envelopeMapper) Map(_, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	if err := m.p.at(m.p.mapFault.Load()); err != nil {
		return err
	}
	for _, tok := range strings.Fields(value.(*types.Text).String()) {
		if err := out.Collect(types.NewText(tok), types.NewInt(1)); err != nil {
			return err
		}
	}
	return nil
}

type envelopeReducer struct {
	mapred.Base
	p *envelopeProbe
}

func (r *envelopeReducer) Configure(job *conf.JobConf) { r.p = envelopeProbeOf(job) }

func (r *envelopeReducer) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	if err := r.p.at(r.p.reduceFault.Load()); err != nil {
		return err
	}
	n := int32(0)
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		n += v.(*types.IntWritable).V
	}
	return out.Collect(key, types.NewInt(n))
}

func init() {
	mapred.RegisterMapper("test.EnvelopeMapper", func() mapred.Mapper { return &envelopeMapper{} })
	mapred.RegisterReducer("test.EnvelopeReducer", func() mapred.Reducer { return &envelopeReducer{} })
}

// envelopeFS stands between the engines and the HDFS and injects the two
// faults that only a filesystem can: a job commit that fails, and a kill
// that lands between the last task's commit and the job's.
type envelopeFS struct {
	dfs.FileSystem
	probe atomic.Pointer[envelopeProbe]
}

func (f *envelopeFS) Create(path string) (io.WriteCloser, error) {
	if p := f.probe.Load(); p != nil && p.failSuccess.Load() && dfs.Base(path) == formats.SuccessMarker {
		return nil, errEnvelopeCreate
	}
	return f.FileSystem.Create(path)
}

func (f *envelopeFS) Rename(src, dst string) error {
	if p := f.probe.Load(); p != nil && p.killAtCommit != nil &&
		strings.Contains(src, formats.TemporaryDir) && strings.HasPrefix(dfs.Base(dst), "part-") &&
		p.commitsLeft.Add(-1) == 0 {
		p.killAtCommit.Kill(engine.ErrJobKilled)
	}
	return f.FileSystem.Rename(src, dst)
}

const envelopeReducers = 2

// envelopeRow is one way to break a job. conf breaks the submission itself,
// arm the tasks or the filesystem under it; a gate row is killed once a task
// has reached the gate.
type envelopeRow struct {
	name   string
	conf   func(job *conf.JobConf)
	arm    func(p *envelopeProbe, lc *engine.JobLifecycle)
	gate   bool
	exists bool // the output path exists before the submission, and stays
	// The failure's class on every engine: a sentinel, or failing one, text.
	is       error
	contains string
}

var envelopeRows = []envelopeRow{
	{name: "input path missing", is: dfs.ErrNotFound,
		conf: func(job *conf.JobConf) { job.Set(conf.KeyInputPaths, "/data/nosuch") }},
	{name: "unknown codec", is: spill.ErrUnknownCodec,
		conf: func(job *conf.JobConf) { job.Set(conf.KeyM3RSpillCodec, "zstd") }},
	{name: "output exists", is: dfs.ErrExists, exists: true},
	{name: "mapper error", is: errEnvelopeTask,
		arm: func(p *envelopeProbe, _ *engine.JobLifecycle) { p.mapFault.Store(faultError) }},
	{name: "reducer error", is: errEnvelopeTask,
		arm: func(p *envelopeProbe, _ *engine.JobLifecycle) { p.reduceFault.Store(faultError) }},
	{name: "kill in map", is: engine.ErrJobKilled, gate: true,
		arm: func(p *envelopeProbe, _ *engine.JobLifecycle) { p.mapFault.Store(faultGate) }},
	{name: "kill in reduce", is: engine.ErrJobKilled, gate: true,
		arm: func(p *envelopeProbe, _ *engine.JobLifecycle) { p.reduceFault.Store(faultGate) }},
	{name: "kill between last task and commit", is: engine.ErrJobKilled,
		arm: func(p *envelopeProbe, lc *engine.JobLifecycle) {
			p.killAtCommit = lc
			p.commitsLeft.Store(envelopeReducers)
		}},
	{name: "deadline", is: engine.ErrDeadlineExceeded,
		conf: func(job *conf.JobConf) { job.SetInt(conf.KeyJobDeadlineMS, 40) },
		arm:  func(p *envelopeProbe, _ *engine.JobLifecycle) { p.mapFault.Store(faultSleep) }},
	{name: "_SUCCESS create fails", is: errEnvelopeCreate,
		arm: func(p *envelopeProbe, _ *engine.JobLifecycle) { p.failSuccess.Store(true) }},
	{name: "panic in a reducer", contains: "panicked",
		arm: func(p *envelopeProbe, _ *engine.JobLifecycle) { p.reduceFault.Store(faultPanic) }},
}

// faultCluster is base with both engines rebuilt over fault, which stands
// between them and base's HDFS (FS stays the bare one): what lab.Options
// cannot express. pool is the M3R engine's ShuffleBudgetBytes.
func faultCluster(t *testing.T, base *lab.Cluster, fault *envelopeFS, pool int64) *lab.Cluster {
	t.Helper()
	fault.FileSystem = base.FS
	he, err := hadoop.New(hadoop.Options{FS: fault, Nodes: base.FS.Hosts(), LocalDir: t.TempDir(), Stats: base.Stats, Cost: base.Cost})
	if err != nil {
		t.Fatal(err)
	}
	me, err := m3r.New(m3r.Options{Backing: fault, Places: base.Nodes, ShuffleBudgetBytes: pool, Stats: base.Stats, Cost: base.Cost})
	if err != nil {
		he.Close()
		t.Fatal(err)
	}
	c := &lab.Cluster{FS: base.FS, Hadoop: he, M3R: me, Stats: base.Stats, Cost: base.Cost, Nodes: base.Nodes}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	})
	return c
}

func TestJobEnvelope(t *testing.T) {
	legs := []struct {
		name string
		pool int64 // m3r.Options.ShuffleBudgetBytes
		eng  func(c *lab.Cluster) engine.Engine
		conf func(job *conf.JobConf)
	}{
		{name: "hadoop", pool: -1, eng: func(c *lab.Cluster) engine.Engine { return c.Hadoop }},
		// An explicit zero opts the job out of whatever budget the
		// environment's defaults carry.
		{name: "m3r", pool: -1, eng: func(c *lab.Cluster) engine.Engine { return c.M3R },
			conf: func(job *conf.JobConf) { job.SetInt64(conf.KeyM3RShuffleBudget, 0) }},
		{name: "m3r budgeted", pool: 1 << 20, eng: func(c *lab.Cluster) engine.Engine { return c.M3R }},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			fault := &envelopeFS{}
			c := faultCluster(t, newCluster(t, lab.Options{Nodes: 2}), fault, leg.pool)
			if err := wordcount.Generate(c.FS, "/data/E", 32<<10, 23); err != nil {
				t.Fatal(err)
			}
			want, err := wordcount.CountReference(c.FS, "/data/E")
			if err != nil {
				t.Fatal(err)
			}
			eng := leg.eng(c)
			mkJob := func(id, out string) *conf.JobConf {
				job := conf.NewJob()
				job.SetJobName("envelope")
				job.Set("test.envelope.id", id)
				job.AddInputPath("/data/E")
				job.SetOutputPath(out)
				job.SetMapperClass("test.EnvelopeMapper")
				job.SetReducerClass("test.EnvelopeReducer")
				job.SetNumReduceTasks(envelopeReducers)
				job.SetMapOutputKeyClass(types.TextName)
				job.SetMapOutputValueClass(types.IntName)
				job.SetOutputKeyClass(types.TextName)
				job.SetOutputValueClass(types.IntName)
				if leg.conf != nil {
					leg.conf(job)
				}
				return job
			}
			// The engines' long-lived goroutines start with their first job.
			if _, err := eng.Submit(mkJob("", "/out/warm")); err != nil {
				t.Fatal(err)
			}
			for i, row := range envelopeRows {
				t.Run(row.name, func(t *testing.T) {
					id := leg.name + "/" + row.name
					out := "/out/e" + strconv.Itoa(i)
					// Through the engine's own filesystem: on M3R the cache is
					// part of what "exists" means.
					engFS, err := dfs.Instance(eng.FileSystem())
					if err != nil {
						t.Fatal(err)
					}
					if row.exists {
						if err := engFS.Mkdirs(out); err != nil {
							t.Fatal(err)
						}
					}
					streams, readers, goroutines := spill.OpenStreamCount(), dfs.OpenReaderCount(), runtime.NumGoroutine()

					p, lc := newEnvelopeProbe(), engine.NewJobLifecycle()
					if row.arm != nil {
						row.arm(p, lc)
					}
					envelopeProbes.Store(id, p)
					fault.probe.Store(p)
					job := mkJob(id, out)
					if row.conf != nil {
						row.conf(job)
					}
					errCh := make(chan error, 1)
					go func() {
						_, err := eng.(engine.LifecycleSubmitter).SubmitControlled(job, lc)
						errCh <- err
					}()
					if row.gate {
						select {
						case <-p.reached:
						case err := <-errCh:
							t.Fatalf("job ended before its gate: %v", err)
						case <-time.After(30 * time.Second):
							t.Fatal("gate never reached")
						}
						lc.Kill(engine.ErrJobKilled)
						close(p.release)
					}
					select {
					case err = <-errCh:
					case <-time.After(30 * time.Second):
						t.Fatal("job never ended")
					}
					envelopeProbes.Delete(id)
					fault.probe.Store(nil)

					switch {
					case err == nil:
						t.Fatal("the broken job succeeded")
					case row.is != nil && !errors.Is(err, row.is):
						t.Fatalf("error = %v, want %v", err, row.is)
					case row.is == nil && !strings.Contains(err.Error(), row.contains):
						t.Fatalf("error = %v, want one that mentions %q", err, row.contains)
					}
					if got := c.FS.Exists(out); got != row.exists {
						t.Errorf("after the failure: %s exists on the filesystem = %v, want %v", out, got, row.exists)
					}
					if got := engFS.Exists(out); got != row.exists {
						t.Errorf("after the failure: %s exists for the engine's jobs = %v, want %v", out, got, row.exists)
					}
					if held := c.M3R.ShufflePoolHeldBytes(); held != 0 {
						t.Errorf("shuffle pool holds %d bytes after the failure", held)
					}
					if got := spill.OpenStreamCount(); got != streams {
						t.Errorf("OpenStreamCount %d, was %d before the job", got, streams)
					}
					if got := dfs.OpenReaderCount(); got != readers {
						t.Errorf("OpenReaderCount %d, was %d before the job", got, readers)
					}
					for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
						time.Sleep(5 * time.Millisecond)
					}
					if n := runtime.NumGoroutine(); n > goroutines {
						t.Errorf("%d goroutines, %d before the job", n, goroutines)
					}

					// The user corrects the job and submits it again.
					if row.exists {
						if err := engFS.Delete(out, true); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := eng.Submit(mkJob("", out)); err != nil {
						t.Fatalf("the corrected job, resubmitted to %s: %v", out, err)
					}
					checkCounts(t, readTextOutput(t, c.FS, out), want)
					if got := dfs.OpenReaderCount(); got != readers {
						t.Errorf("OpenReaderCount %d after the corrected job, was %d before the first", got, readers)
					}
				})
			}
		})
	}
}
