package integration_test

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/hadoop"
	"m3r/internal/lab"
	"m3r/internal/mapred"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// ---- phase gates: block a UDF inside a chosen phase so a kill can be
// injected at a precise point of the job's execution ----

// phaseGate coordinates one leg of the kill grid: the gated UDF signals
// reached, then blocks until release closes. The test kills the job between
// the two, so the cancellation lands while the job is provably inside the
// phase under test.
type phaseGate struct {
	reached chan struct{}
	release chan struct{}
	once    sync.Once
	first   atomic.Bool  // single-blocker points (close gates)
	inst    atomic.Int32 // numbers mapper instances at their first record, for the "task" point
}

func newPhaseGate() *phaseGate {
	return &phaseGate{reached: make(chan struct{}), release: make(chan struct{})}
}

// arrive blocks every caller until release (first caller signals reached).
func (g *phaseGate) arrive() {
	g.once.Do(func() { close(g.reached) })
	<-g.release
}

// arriveFirst blocks only the first caller; later callers pass through, so
// exactly one task sits in the gated point while the rest of the job
// proceeds (the barrier and commit legs).
func (g *phaseGate) arriveFirst() {
	if g.first.CompareAndSwap(false, true) {
		close(g.reached)
		<-g.release
	}
}

var phaseGates sync.Map // gate id -> *phaseGate

// gateMapper tokenizes lines into (word, 1) pairs, optionally blocking on
// its job's phase gate: at the first record of every task ("map"), at the
// first record of the N-th task to see one ("task" + test.gate.task; tasks
// are numbered at their first record, so a split with no records cannot
// take the gated number and let the job finish ungated), or in the first
// task's Close ("map.close").
type gateMapper struct {
	mapred.Base
	g       *phaseGate
	point   string
	taskN   int
	engaged bool
}

func (m *gateMapper) Configure(job *conf.JobConf) {
	if v, ok := phaseGates.Load(job.Get("test.gate.id")); ok {
		m.g = v.(*phaseGate)
	}
	m.point = job.Get("test.gate.map.point")
	m.taskN = job.GetInt("test.gate.task", 0)
}

func (m *gateMapper) Map(_, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	if m.g != nil && !m.engaged {
		switch m.point {
		case "map":
			m.engaged = true
			m.g.arrive()
		case "task":
			m.engaged = true
			if int(m.g.inst.Add(1)) == m.taskN {
				m.g.arrive()
			}
		}
	}
	for _, tok := range strings.Fields(value.(*types.Text).String()) {
		if err := out.Collect(types.NewText(tok), types.NewInt(1)); err != nil {
			return err
		}
	}
	return nil
}

func (m *gateMapper) Close() error {
	if m.g != nil && m.point == "map.close" {
		m.g.arriveFirst()
	}
	return nil
}

// gateReducer counts each group's values, optionally blocking at the first
// group ("reduce") or in the first reducer's Close ("reduce.close").
type gateReducer struct {
	mapred.Base
	g       *phaseGate
	point   string
	engaged bool
}

func (r *gateReducer) Configure(job *conf.JobConf) {
	if v, ok := phaseGates.Load(job.Get("test.gate.id")); ok {
		r.g = v.(*phaseGate)
	}
	r.point = job.Get("test.gate.reduce.point")
}

func (r *gateReducer) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	if r.g != nil && r.point == "reduce" && !r.engaged {
		r.engaged = true
		r.g.arrive()
	}
	n := int32(0)
	for {
		if _, ok := values.Next(); !ok {
			break
		}
		n++
	}
	return out.Collect(key, types.NewInt(n))
}

func (r *gateReducer) Close() error {
	if r.g != nil && r.point == "reduce.close" {
		r.g.arriveFirst()
	}
	return nil
}

// slowMapper sleeps per input record, so a short m3r.job.deadline.ms
// reliably expires mid-map.
type slowMapper struct{ mapred.Base }

func (*slowMapper) Map(_, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	time.Sleep(2 * time.Millisecond)
	for _, tok := range strings.Fields(value.(*types.Text).String()) {
		if err := out.Collect(types.NewText(tok), types.NewInt(1)); err != nil {
			return err
		}
	}
	return nil
}

// failOnceMapper tokenizes like gateMapper but fails exactly one Map call
// while its job's registry entry is armed — the transient fault driving the
// m3r → hadoop failover test.
type failOnceMapper struct {
	mapred.Base
	armed *atomic.Bool
}

var failOnces sync.Map // id -> *atomic.Bool

var errInjectedTask = errors.New("injected m3r task failure")

func (m *failOnceMapper) Configure(job *conf.JobConf) {
	if v, ok := failOnces.Load(job.Get("test.failonce.id")); ok {
		m.armed = v.(*atomic.Bool)
	}
}

func (m *failOnceMapper) Map(_, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	if m.armed != nil && m.armed.CompareAndSwap(true, false) {
		return errInjectedTask
	}
	for _, tok := range strings.Fields(value.(*types.Text).String()) {
		if err := out.Collect(types.NewText(tok), types.NewInt(1)); err != nil {
			return err
		}
	}
	return nil
}

func init() {
	mapred.RegisterMapper("test.GateMapper", func() mapred.Mapper { return &gateMapper{} })
	mapred.RegisterReducer("test.GateReducer", func() mapred.Reducer { return &gateReducer{} })
	mapred.RegisterMapper("test.SlowMapper", func() mapred.Mapper { return &slowMapper{} })
	mapred.RegisterMapper("test.FailOnceMapper", func() mapred.Mapper { return &failOnceMapper{} })
}

// ---- the kill grid ----

// killLeg is one point of the kill grid: where the gate sits and the job
// configuration that makes that phase real (runs spilled, map tasks
// merging their spills, ...).
type killLeg struct {
	name        string
	mapPoint    string
	reducePoint string
	conf        func(job *conf.JobConf)
}

var killLegs = []killLeg{
	// Mid-map: every task blocks at its first record.
	{name: "map", mapPoint: "map"},
	// Mid-map with the spill path engaged: a starvation budget spills every
	// run (m3r) / a tiny sort buffer forces multi-spill map tasks (hadoop);
	// the third task blocks mid-map after earlier tasks have spilled.
	{name: "spill", mapPoint: "task", conf: func(job *conf.JobConf) {
		job.SetInt("test.gate.task", 3)
		job.SetInt64(conf.KeyM3RShuffleBudget, 1)
		job.SetInt64("io.sort.bytes", 256)
	}},
	// Map tail / shuffle barrier: one task blocks in Close while every
	// other task finishes — on m3r the map phase's finish waits for the
	// gated task, and the kill releases it.
	{name: "barrier", mapPoint: "map.close"},
	// Mid reduce-side merge: spilled runs feed the merge and every reducer
	// blocks at its first group, so spilled-run streams are open when the
	// kill lands.
	{name: "merge", reducePoint: "reduce", conf: func(job *conf.JobConf) {
		job.SetInt64(conf.KeyM3RShuffleBudget, 1)
		job.SetInt64("io.sort.bytes", 256)
	}},
	// Mid-reduce, plain merge.
	{name: "reduce", reducePoint: "reduce"},
	// Commit tail: the first reducer blocks in Close with its output
	// written; the kill must abort instead of committing.
	{name: "commit", reducePoint: "reduce.close"},
}

func killGridJob(in, out, gateID string, leg killLeg) *conf.JobConf {
	job := conf.NewJob()
	job.SetJobName("kill-" + leg.name)
	job.AddInputPath(in)
	job.SetOutputPath(out)
	job.SetMapperClass("test.GateMapper")
	job.SetReducerClass("test.GateReducer")
	job.SetNumReduceTasks(3)
	job.SetMapOutputKeyClass(types.TextName)
	job.SetMapOutputValueClass(types.IntName)
	job.SetOutputKeyClass(types.TextName)
	job.SetOutputValueClass(types.IntName)
	job.Set("test.gate.id", gateID)
	job.Set("test.gate.map.point", leg.mapPoint)
	job.Set("test.gate.reduce.point", leg.reducePoint)
	if leg.conf != nil {
		leg.conf(job)
	}
	return job
}

// assertNoJobDroppings checks a killed job left no commit scratch behind.
// allowParts tolerates task outputs committed before the kill landed (the
// commit-phase leg kills between task commits and the job commit).
func assertNoJobDroppings(t *testing.T, fs dfs.FileSystem, dir string, allowParts bool) {
	t.Helper()
	files, err := dfs.ListRecursive(fs, dir)
	if err != nil {
		return // output dir never created: nothing leaked
	}
	for _, f := range files {
		if strings.Contains(f.Path, "_temporary") {
			t.Errorf("killed job left commit scratch %s", f.Path)
		}
		if !allowParts && strings.HasPrefix(dfs.Base(f.Path), "part-") {
			t.Errorf("killed job left output %s", f.Path)
		}
	}
}

// TestKillGridBothEngines injects a kill while a job is provably inside
// each phase — map, spill, barrier, merge, reduce, commit — on both
// engines, and checks the job terminates promptly with the distinct
// ErrJobKilled cause, the shared shuffle pool drains, no spill stream stays
// open, and no commit scratch survives.
func TestKillGridBothEngines(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2, ShuffleBudgetBytes: 1 << 20}) // engine pool: held-bytes must return to 0
	if err := wordcount.Generate(c.FS, "/data/K", 256<<10, 7); err != nil {
		t.Fatal(err)
	}
	streamBase, readerBase := spill.OpenStreamCount(), dfs.OpenReaderCount()

	engines := []engine.Engine{c.M3R, c.Hadoop}
	for _, eng := range engines {
		sc, ok := eng.(engine.LifecycleSubmitter)
		if !ok {
			t.Fatalf("%s engine does not support controlled submission", eng.Name())
		}
		for _, leg := range killLegs {
			t.Run(eng.Name()+"/"+leg.name, func(t *testing.T) {
				gateID := eng.Name() + "-" + leg.name
				g := newPhaseGate()
				phaseGates.Store(gateID, g)
				defer phaseGates.Delete(gateID)

				out := "/out/kill-" + gateID
				job := killGridJob("/data/K", out, gateID, leg)
				killedBefore := c.Stats.Get(sim.JobsKilled)

				lc := engine.NewJobLifecycle()
				errCh := make(chan error, 1)
				go func() {
					_, err := sc.SubmitControlled(job, lc)
					errCh <- err
				}()
				select {
				case <-g.reached:
				case err := <-errCh:
					t.Fatalf("job terminated before the %s gate: %v", leg.name, err)
				case <-time.After(30 * time.Second):
					t.Fatalf("the %s gate was never reached", leg.name)
				}
				lc.Kill(engine.ErrJobKilled)
				close(g.release)
				var err error
				select {
				case err = <-errCh:
				case <-time.After(30 * time.Second):
					t.Fatal("killed job never terminated")
				}
				if !errors.Is(err, engine.ErrJobKilled) {
					t.Fatalf("killed job error = %v, want ErrJobKilled", err)
				}
				if errors.Is(err, engine.ErrDeadlineExceeded) {
					t.Fatalf("kill misclassified as deadline: %v", err)
				}
				if got := c.Stats.Get(sim.JobsKilled); got != killedBefore+1 {
					t.Errorf("jobs.killed = %d, want %d", got, killedBefore+1)
				}
				if held := c.M3R.ShufflePoolHeldBytes(); held != 0 {
					t.Errorf("shuffle pool holds %d bytes after kill", held)
				}
				if got := spill.OpenStreamCount(); got != streamBase {
					t.Errorf("OpenStreamCount %d, baseline %d: leaked spill streams", got, streamBase)
				}
				if got := dfs.OpenReaderCount(); got != readerBase {
					t.Errorf("OpenReaderCount %d, baseline %d: leaked HDFS readers", got, readerBase)
				}
				assertNoJobDroppings(t, c.FS, out, leg.name == "commit")
			})
		}
	}
}

// TestDeadlineBothEngines: a job whose mappers outlive m3r.job.deadline.ms
// fails with the distinct deadline cause on both engines, through plain
// Submit (the engine arms the watchdog from the job conf itself).
func TestDeadlineBothEngines(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/D", 64<<10, 3); err != nil {
		t.Fatal(err)
	}
	for _, eng := range []engine.Engine{c.M3R, c.Hadoop} {
		t.Run(eng.Name(), func(t *testing.T) {
			before := c.Stats.Get(sim.JobsDeadlineExceeded)
			job := conf.NewJob()
			job.SetJobName("deadline")
			job.AddInputPath("/data/D")
			job.SetOutputPath("/out/deadline-" + eng.Name())
			job.SetMapperClass("test.SlowMapper")
			job.SetReducerClass("test.GateReducer")
			job.SetNumReduceTasks(2)
			job.SetMapOutputKeyClass(types.TextName)
			job.SetMapOutputValueClass(types.IntName)
			job.SetOutputKeyClass(types.TextName)
			job.SetOutputValueClass(types.IntName)
			job.SetInt(conf.KeyJobDeadlineMS, 50)
			_, err := eng.Submit(job)
			if !errors.Is(err, engine.ErrDeadlineExceeded) {
				t.Fatalf("error = %v, want ErrDeadlineExceeded", err)
			}
			if errors.Is(err, engine.ErrJobKilled) {
				t.Fatalf("deadline misclassified as kill: %v", err)
			}
			if got := c.Stats.Get(sim.JobsDeadlineExceeded); got != before+1 {
				t.Errorf("jobs.deadline.exceeded = %d, want %d", got, before+1)
			}
			assertNoJobDroppings(t, c.FS, "/out/deadline-"+eng.Name(), false)
		})
	}
}

// TestHadoopRetryFlakyFS proves bounded re-execution end to end: transient
// create faults injected under two task attempts, and an open fault under a
// reduce attempt, are absorbed by retry, the job succeeds, and its output
// is byte-identical to a fault-free run.
func TestHadoopRetryFlakyFS(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/F", 64<<10, 13); err != nil {
		t.Fatal(err)
	}
	mkJob := func(out string) *conf.JobConf {
		job := wordcount.NewJob("/data/F", out, 3, true)
		job.SetInt64("io.sort.bytes", 2048) // multi-spill map tasks: many creates
		return job
	}
	if _, err := c.Hadoop.Submit(mkJob("/out/retry-clean")); err != nil {
		t.Fatal(err)
	}
	want := readRawParts(t, c.FS, "/out/retry-clean")

	hook, fired := hadoop.FailNthCreates(1, 2)
	hadoop.SetCreateFileFault(hook)
	defer hadoop.SetCreateFileFault(nil)
	retriesBefore := c.Stats.Get(sim.TaskRetries)
	job := mkJob("/out/retry-flaky")
	job.SetInt(conf.KeyMaxMapAttempts, 4)
	job.SetInt(conf.KeyMaxReduceAttempts, 4)
	rep, err := c.Hadoop.Submit(job)
	if err != nil {
		t.Fatalf("flaky job did not survive retry: %v", err)
	}
	if got := fired(); got != 2 {
		t.Fatalf("%d injected faults fired, want 2", got)
	}
	if got := rep.Counters.Value(counters.JobGroup, counters.TaskAttemptRetries); got < 1 {
		t.Errorf("TASK_ATTEMPT_RETRIES = %d, want >= 1", got)
	}
	if got := c.Stats.Get(sim.TaskRetries); got <= retriesBefore {
		t.Errorf("task.retries did not move (%d)", got)
	}
	assertSameParts(t, "flaky-retry", readRawParts(t, c.FS, "/out/retry-flaky"), want)

	// With a single attempt allowed, the same fault is terminal and carries
	// the injected cause.
	hook2, _ := hadoop.FailNthCreates(1)
	hadoop.SetCreateFileFault(hook2)
	job = mkJob("/out/retry-off")
	job.SetInt(conf.KeyMaxMapAttempts, 1)
	job.SetInt(conf.KeyMaxReduceAttempts, 1)
	if _, err := c.Hadoop.Submit(job); !errors.Is(err, hadoop.ErrInjectedFault) {
		t.Fatalf("single-attempt flaky job: %v, want the injected fault", err)
	}

	// A reduce attempt opens each map output's segment in place, through
	// the same seam: its first open fails, and the retry absorbs it.
	streamBase := spill.OpenStreamCount()
	hook3, fired3 := failFirstReopen()
	hadoop.SetCreateFileFault(hook3)
	job = mkJob("/out/retry-reduce")
	job.SetInt(conf.KeyMaxMapAttempts, 1)
	job.SetInt(conf.KeyMaxReduceAttempts, 4)
	if rep, err = c.Hadoop.Submit(job); err != nil {
		t.Fatalf("job with a flaky reduce-side open did not survive retry: %v", err)
	}
	if got := fired3(); got != 1 {
		t.Fatalf("%d reduce-side open faults fired, want 1", got)
	}
	if got := rep.Counters.Value(counters.JobGroup, counters.TaskAttemptRetries); got < 1 {
		t.Errorf("reduce-side open: TASK_ATTEMPT_RETRIES = %d, want >= 1", got)
	}
	assertSameParts(t, "flaky-reduce-open", readRawParts(t, c.FS, "/out/retry-reduce"), want)

	// With a single reduce attempt it is terminal.
	hook4, _ := failFirstReopen()
	hadoop.SetCreateFileFault(hook4)
	job = mkJob("/out/retry-reduce-off")
	job.SetInt(conf.KeyMaxMapAttempts, 1)
	job.SetInt(conf.KeyMaxReduceAttempts, 1)
	if _, err := c.Hadoop.Submit(job); !errors.Is(err, hadoop.ErrInjectedFault) {
		t.Fatalf("single-attempt job with a flaky reduce-side open: %v, want the injected fault", err)
	}
	if got := spill.OpenStreamCount(); got != streamBase {
		t.Errorf("OpenStreamCount %d, baseline %d: failed reduce attempts leaked segment streams", got, streamBase)
	}
}

// failFirstReopen returns a fault hook that fails the first operation on a
// path it has seen before, once, and reports how many times it fired. A map
// attempt creates each of its attempt-scoped paths once, so that is the
// first reduce-side open of a map output.
func failFirstReopen() (func(string) error, func() int) {
	var mu sync.Mutex
	seen := make(map[string]bool)
	fired := 0
	hook := func(path string) error {
		mu.Lock()
		defer mu.Unlock()
		if seen[path] && fired == 0 {
			fired++
			return fmt.Errorf("%w: reopen of %s", hadoop.ErrInjectedFault, path)
		}
		seen[path] = true
		return nil
	}
	return hook, func() int {
		mu.Lock()
		defer mu.Unlock()
		return fired
	}
}

// listLocalReducer is gateReducer's count with a look around: at its first
// group it walks the directory test.listlocal.dir names and records, under
// that name, every path it finds below a reduce_ directory and whether it
// saw a map task's directory.
type listLocalReducer struct {
	gateReducer
	dir    string
	listed bool
}

// localListing is what one job's listLocalReducers found.
type localListing struct {
	mu       sync.Mutex
	listings int
	sawMap   bool
	reduce   []string
}

var localListings sync.Map // dir -> *localListing

func (r *listLocalReducer) Configure(job *conf.JobConf) { r.dir = job.Get("test.listlocal.dir") }

func (r *listLocalReducer) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, rep mapred.Reporter) error {
	if !r.listed {
		r.listed = true
		v, _ := localListings.LoadOrStore(r.dir, new(localListing))
		l := v.(*localListing)
		err := filepath.WalkDir(r.dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				// A directory another task removes mid-walk.
				return nil
			}
			l.mu.Lock()
			defer l.mu.Unlock()
			switch name := d.Name(); {
			case strings.HasPrefix(name, "map_"):
				l.sawMap = true
			case strings.Contains(path, string(filepath.Separator)+"reduce_"):
				l.reduce = append(l.reduce, path)
			}
			return nil
		})
		if err != nil {
			return err
		}
		l.mu.Lock()
		l.listings++
		l.mu.Unlock()
	}
	return r.gateReducer.Reduce(key, values, out, rep)
}

func init() {
	mapred.RegisterReducer("test.ListLocalReducer", func() mapred.Reducer { return &listLocalReducer{} })
}

// TestHadoopReduceMakesNoLocalFile: a reduce attempt merges every map
// output's segment where the map task left it, so it makes no file or
// directory of its own. On a 4-map × 4-reduce job no path through the fault
// seam and nothing in the cluster's directories, listed from inside every
// reducer, lies below a reduce_ directory — while the reducers' opens do go
// through the seam, and their listing does see the map tasks' directories.
func TestHadoopReduceMakesNoLocalFile(t *testing.T) {
	dir := t.TempDir()
	c := newCluster(t, lab.Options{Nodes: 2, Dir: dir})
	if err := wordcount.Generate(c.FS, "/data/L", 240<<10, 7); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var paths []string
	hadoop.SetCreateFileFault(func(path string) error {
		mu.Lock()
		defer mu.Unlock()
		paths = append(paths, path)
		return nil
	})
	defer hadoop.SetCreateFileFault(nil)
	job := wordcount.NewJob("/data/L", "/out/nolocal", 4, false)
	job.SetReducerClass("test.ListLocalReducer")
	job.Set("test.listlocal.dir", dir)
	job.SetInt(conf.KeyNumMapTasks, 1) // no block subdivided: four blocks, four map tasks
	rep, err := c.Hadoop.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if maps := rep.Counters.Value(counters.JobGroup, counters.TotalLaunchedMaps); maps != 4 {
		t.Fatalf("%d map tasks, want 4", maps)
	}
	seen := make(map[string]bool)
	reopened := 0
	for _, p := range paths {
		if strings.Contains(p, string(filepath.Separator)+"reduce_") {
			t.Errorf("a task made %s, below a reduce attempt's directory", p)
		}
		if seen[p] {
			reopened++
		}
		seen[p] = true
	}
	if reopened == 0 {
		t.Errorf("no reduce-side open among the %d operations through the fault seam", len(paths))
	}
	v, ok := localListings.Load(dir)
	if !ok {
		t.Fatal("no reducer listed the local directory")
	}
	l := v.(*localListing)
	if l.listings != 4 || !l.sawMap {
		t.Errorf("%d reducers listed the cluster's directories, want 4; map task directories seen: %v", l.listings, l.sawMap)
	}
	for _, p := range l.reduce {
		t.Errorf("a reducer found %s, below a reduce attempt's directory", p)
	}
}

// TestM3RFailoverToHadoop: with m3r.job.failover set and a fallback engine
// wired, an m3r task failure rolls the job back and resubmits it to the
// hadoop engine — the paper's integrated-mode resilience story (§5.3) made
// automatic. Off by default: without the key the failure is terminal.
func TestM3RFailoverToHadoop(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/FO", 32<<10, 17); err != nil {
		t.Fatal(err)
	}
	want, err := wordcount.CountReference(c.FS, "/data/FO")
	if err != nil {
		t.Fatal(err)
	}
	mkJob := func(id, out string, failover bool) *conf.JobConf {
		job := conf.NewJob()
		job.SetJobName("failover")
		job.AddInputPath("/data/FO")
		job.SetOutputPath(out)
		job.SetMapperClass("test.FailOnceMapper")
		job.SetReducerClass("test.GateReducer")
		job.SetNumReduceTasks(2)
		job.SetMapOutputKeyClass(types.TextName)
		job.SetMapOutputValueClass(types.IntName)
		job.SetOutputKeyClass(types.TextName)
		job.SetOutputValueClass(types.IntName)
		job.Set("test.failonce.id", id)
		job.SetBool(conf.KeyM3RFailover, failover)
		return job
	}
	arm := func(id string) {
		armed := &atomic.Bool{}
		armed.Store(true)
		failOnces.Store(id, armed)
	}

	// Failover off (the default): the injected task failure is terminal,
	// M3R's "no resilience" design point.
	arm("fo-off")
	if _, err := c.M3R.Submit(mkJob("fo-off", "/out/fo-off", false)); !errors.Is(err, errInjectedTask) {
		t.Fatalf("without failover: %v, want the injected task failure", err)
	}

	// Failover on: the job rolls back and reruns on the hadoop engine.
	arm("fo-on")
	rep, err := c.M3R.Submit(mkJob("fo-on", "/out/fo-on", true))
	if err != nil {
		t.Fatalf("failover did not rescue the job: %v", err)
	}
	if rep.Engine != "hadoop" {
		t.Fatalf("failover report from engine %q, want hadoop", rep.Engine)
	}
	if got := rep.Counters.Value(counters.JobGroup, counters.FailoverJobs); got != 1 {
		t.Errorf("FAILOVER_JOBS = %d, want 1", got)
	}
	if got := c.Stats.Get(sim.FailoverJobs); got != 1 {
		t.Errorf("failover.jobs = %d, want 1", got)
	}
	lines := readTextOutput(t, c.FS, "/out/fo-on")
	checkCounts(t, lines, want)
}
