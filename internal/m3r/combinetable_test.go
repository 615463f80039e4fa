package m3r

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/mapred"
	"m3r/internal/spill"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// The combine tables' failure paths. A combiner job's collected pairs sit in
// engine.CombineTables until flush drains them, and the combiner runs in the
// middle of the map phase; these tests fault the combiner there and in the
// drain, and hold the job to its error and the engine to its baselines.

// faultProbe is what a test shares with the combiners of its job.
type faultProbe struct {
	calls atomic.Int64 // Reduce calls, over every task
	at    int64        // the call that faults
	fault func() error // what it does: kill the job, return an error, panic
	live  atomic.Int64 // combiners configured and not yet closed

	// Once the fault has struck: how many combiners were live then, and
	// how many calls began after it.
	fired       atomic.Bool
	liveAtFault atomic.Int64
	faulty      atomic.Int64
}

// strike runs the fault, then records it, whether it returns or panics.
func (p *faultProbe) strike() error {
	defer func() {
		p.liveAtFault.Store(p.live.Load())
		p.fired.Store(true)
	}()
	return p.fault()
}

var (
	faultProbes      sync.Map // test.fault.id -> *faultProbe
	errCombinerFault = errors.New("injected combiner failure")
)

// faultCombiner is WordCount's combiner with a fault on one of its calls.
type faultCombiner struct {
	wordcount.SumReducer
	p *faultProbe
}

func (c *faultCombiner) Configure(job *conf.JobConf) {
	v, _ := faultProbes.Load(job.Get("test.fault.id"))
	c.p = v.(*faultProbe)
	c.p.live.Add(1)
}

func (c *faultCombiner) Close() error {
	c.p.live.Add(-1)
	return nil
}

func (c *faultCombiner) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, r mapred.Reporter) error {
	switch n := c.p.calls.Add(1); {
	case c.p.fired.Load():
		c.p.faulty.Add(1)
	case n == c.p.at:
		if err := c.p.strike(); err != nil {
			return err
		}
	}
	return c.SumReducer.Reduce(key, values, out, r)
}

func init() {
	mapred.RegisterReducer("test.FaultCombiner", func() mapred.Reducer { return &faultCombiner{} })
}

// faultJob is WordCount over input on two partitions with the probed
// combiner.
func faultJob(t *testing.T, p *faultProbe, input string) *conf.JobConf {
	t.Helper()
	faultProbes.Store(t.Name(), p)
	t.Cleanup(func() { faultProbes.Delete(t.Name()) })
	job := wordcount.NewJob(input, "/out/"+strings.ReplaceAll(t.Name(), "/", "_"), 2, false)
	job.Set("test.fault.id", t.Name())
	job.SetCombinerClass("test.FaultCombiner")
	return job
}

func TestCombineTableFailurePaths(t *testing.T) {
	// hot: one word 400 times over, so its key folds in the middle of the
	// map, with most of the split still to come. cold: 400 words once each,
	// so nothing folds before the drain.
	hot := bytes.Repeat([]byte("hot hot hot hot hot hot hot hot\n"), 50)
	var cold []byte
	for i := 0; i < 400; i++ {
		cold = fmt.Appendf(cold, "cold%03d%c", i, " \n"[min(i%8/7, 1)])
	}
	for _, tc := range []struct {
		name, input string
		at          int64
		fault       func(lc *engine.JobLifecycle) error
		want        func(err error) bool
		// maxAfter bounds the combiner calls made after the fault; 0 bounds
		// them by the combiners live when it struck.
		maxAfter int64
	}{
		// The fold returns, the table is intact, and the Collect after it is
		// refused. The other place's task may be inside a fold of its own.
		{name: "kill in a fold", input: "/in/hot", at: 1,
			fault:    func(lc *engine.JobLifecycle) error { lc.Kill(engine.ErrJobKilled); return nil },
			want:     func(err error) bool { return errors.Is(err, engine.ErrJobKilled) },
			maxAfter: 3},
		// Call 150 is in some task's drain, past its first partition, so
		// that partition's pairs are already in a stream or a run. Each
		// drain under way may finish the fold it is in, none starts another:
		// without the poll every one of the 400 keys would be folded. A
		// table's combiner is closed when its drain ends, so a call after
		// the kill is one of a combiner live at it, and one each at most.
		{name: "kill in a drain", input: "/in/cold", at: 150,
			fault: func(lc *engine.JobLifecycle) error { lc.Kill(engine.ErrJobKilled); return nil },
			want:  func(err error) bool { return errors.Is(err, engine.ErrJobKilled) }},
		{name: "error in a fold", input: "/in/hot", at: 2,
			fault: func(*engine.JobLifecycle) error { return errCombinerFault },
			want: func(err error) bool {
				return errors.Is(err, errCombinerFault) && strings.Contains(err.Error(), "map task")
			},
			maxAfter: 400},
		{name: "panic in a drain", input: "/in/cold", at: 150,
			fault: func(*engine.JobLifecycle) error { panic("injected combiner panic") },
			want: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "map task") && strings.Contains(err.Error(), "injected combiner panic")
			},
			maxAfter: 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newFaultEngine(t, 2)
			for path, data := range map[string][]byte{"/in/hot/f": hot, "/in/cold/f": cold} {
				if err := dfs.WriteFile(e.CachingFS(), path, data); err != nil {
					t.Fatal(err)
				}
			}
			streamBase, bufBase := spill.OpenStreamCount(), encodeBufsOut.Load()
			goroutines := runtime.NumGoroutine()

			lc := engine.NewJobLifecycle()
			p := &faultProbe{at: tc.at, fault: func() error { return tc.fault(lc) }}
			_, err := e.SubmitControlled(faultJob(t, p, tc.input), lc)
			if !tc.want(err) {
				t.Fatalf("job error = %v", err)
			}
			maxAfter := tc.maxAfter
			if maxAfter == 0 {
				maxAfter = p.liveAtFault.Load()
			}
			if calls := p.calls.Load(); calls < tc.at || !p.fired.Load() || p.faulty.Load() > maxAfter {
				t.Errorf("%d combiner calls, %d of them after the fault at call %d (%d combiners live at it); want at most %d after it",
					calls, p.faulty.Load(), tc.at, p.liveAtFault.Load(), maxAfter)
			}
			assertSpillBaselines(t, e, streamBase, bufBase)
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("%d goroutines after the failed job, %d before it", n, goroutines)
			}
		})
	}
}
