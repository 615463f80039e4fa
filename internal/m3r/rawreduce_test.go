package m3r

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/mapred"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// A budgeted job's records are bytes until its reducer asks for them, so
// what used to fail at the merge's leaf — a spilled run that does not read
// back, a resident segment that does not parse — and what fails in the
// reducer now meet in one loop (engine.RawMerge.Reduce). These tests break a
// job there in every way and ask the same of each: the failure's own error,
// and nothing of the job left behind.

// What midGroupReducer does after the third value of a group of five or
// more, while armed.
const (
	midGroupNothing int32 = iota
	midGroupError
	midGroupPanic
	midGroupKill
)

var (
	midGroupFault    atomic.Int32
	midGroupKillJob  atomic.Pointer[engine.JobLifecycle]
	midGroupAfter    atomic.Int64 // values handed out after the kill
	errMidGroup      = errors.New("injected mid-group reducer error")
	midGroupReducers = "test.m3r.MidGroupReducer"
)

// midGroupReducer is WordCount's sum, faulting inside a group.
type midGroupReducer struct{ mapred.Base }

func (midGroupReducer) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	var sum int32
	killed := false
	for n := 1; ; n++ {
		v, ok := values.Next()
		if !ok {
			break
		}
		if killed {
			midGroupAfter.Add(1)
		}
		sum += v.(*types.IntWritable).V
		if n != 3 {
			continue
		}
		switch midGroupFault.Load() {
		case midGroupError:
			return errMidGroup
		case midGroupPanic:
			panic("injected mid-group reducer panic")
		case midGroupKill:
			midGroupKillJob.Load().Kill(nil)
			killed = true
		}
	}
	return out.Collect(key, types.NewInt(sum))
}

func init() {
	mapred.RegisterReducer(midGroupReducers, func() mapred.Reducer { return midGroupReducer{} })
}

// newRawReduceEngine is newFaultEngine over 16 KiB blocks — four map tasks,
// so every partition merges several runs — with the cache under a budget, so
// that "held == resident" says something.
func newRawReduceEngine(t *testing.T) *Engine {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir(), BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Options{Backing: backing, Places: 2, ShuffleBudgetBytes: 1 << 20, CacheBudgetBytes: 1 << 20, Stats: sim.NewStats()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := wordcount.Generate(backing, "/data/t", 64<<10, 11); err != nil {
		t.Fatal(err)
	}
	return e
}

// combinerlessJob is spillingJob without the combiner, under the flate
// codec: a hot word's group is hundreds of values across every run, and
// every spilled run is a compressed block.
func combinerlessJob(out string) *conf.JobConf {
	job := spillingJob(out)
	job.Unset(conf.KeyCombinerClass)
	job.SetReducerClass(midGroupReducers)
	job.Set(conf.KeyM3RSpillCodec, "flate")
	return job
}

func TestRawReduceFailuresLeaveNothing(t *testing.T) {
	truncate := func(data []byte) []byte { return data[:len(data)-5] }
	badCodec := func(data []byte) []byte {
		// The first block's header follows the six-byte segment header.
		data = append([]byte(nil), data...)
		data[6] = 0x7e
		return data
	}
	cases := []struct {
		name     string
		fault    int32
		corrupt  func([]byte) []byte // applied to the second spilled run
		is       error
		contains string
	}{
		{name: "truncated block", corrupt: truncate, is: io.ErrUnexpectedEOF},
		{name: "bad codec id", corrupt: badCodec, is: spill.ErrUnknownCodec},
		{name: "reducer error mid-group", fault: midGroupError, is: errMidGroup},
		{name: "reducer panic mid-group", fault: midGroupPanic, contains: "panicked: injected mid-group reducer panic"},
		{name: "kill mid-group", fault: midGroupKill, is: engine.ErrJobKilled},
	}
	e := newRawReduceEngine(t)
	// A clean run first: the engine's long-lived goroutines start, the cache
	// takes the output, and the reducer is shown to get through unarmed.
	if _, err := e.Submit(combinerlessJob("/out/clean")); err != nil {
		t.Fatal(err)
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var writes atomic.Int64
			if tc.corrupt != nil {
				swapSpillWrite(t, func(path string, enc spill.EncodedRun) (int64, error) {
					if writes.Add(1) == 2 {
						enc.Data = tc.corrupt(enc.Data)
					}
					return spill.WriteEncodedFile(path, enc)
				})
			}
			streamBase, bufBase, goroutines := spill.OpenStreamCount(), encodeBufsOut.Load(), runtime.NumGoroutine()
			held, resident := e.cache.store.BudgetHeldBytes(), e.cache.store.ResidentBytes()
			if held != resident || resident == 0 {
				t.Fatalf("before the job the cache holds %d bytes for %d resident", held, resident)
			}

			lc := engine.NewJobLifecycle()
			midGroupKillJob.Store(lc)
			midGroupAfter.Store(0)
			midGroupFault.Store(tc.fault)
			_, err := e.SubmitControlled(combinerlessJob("/out/broken"+string(rune('a'+i))), lc)
			midGroupFault.Store(midGroupNothing)

			switch {
			case err == nil:
				t.Fatal("the broken job succeeded")
			case tc.is != nil && !errors.Is(err, tc.is):
				t.Fatalf("error = %v, want %v", err, tc.is)
			case tc.is == nil && !strings.Contains(err.Error(), tc.contains):
				t.Fatalf("error = %v, want one that mentions %q", err, tc.contains)
			}
			if tc.corrupt != nil && writes.Load() < 2 {
				t.Fatalf("%d spill writes: the corrupted run was never written", writes.Load())
			}
			// The iterator polls the lifecycle before it decodes: a reducer
			// that keeps asking after the kill is handed nothing more, in
			// any of the tasks running when it landed.
			if n := midGroupAfter.Load(); n != 0 {
				t.Errorf("%d values were handed out after the kill", n)
			}
			assertSpillBaselines(t, e, streamBase, bufBase)
			if held, resident := e.cache.store.BudgetHeldBytes(), e.cache.store.ResidentBytes(); held != resident {
				t.Errorf("after the failure the cache holds %d bytes for %d resident", held, resident)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("%d goroutines, %d before the job", n, goroutines)
			}
		})
	}
}

// TestResidentSegmentThatDoesNotParse: a resident segment cut short surfaces
// as the segment leaf's own error through the raw driver, and the merge's
// teardown still hands every run's reservation back.
func TestResidentSegmentThatDoesNotParse(t *testing.T) {
	x := newSpillExec(1<<20, spill.CodecNone, 1)
	job := conf.NewJob()
	job.SetMapOutputKeyClass(types.TextName)
	job.SetMapOutputValueClass(types.IntName)
	rj, err := engine.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	x.Resolved = rj
	ctx := engine.NewTaskContext(job, "reduce", nil)
	for src := 0; src < 3; src++ {
		installRun(t, x, ctx, 0, src, textRun("k", 40))
	}
	victim := x.parts[0].runs[1]
	victim.seg = victim.seg[:len(victim.seg)-2]
	if x.budgets[0].Held() == 0 {
		t.Fatal("nothing resident")
	}
	err = x.reduceSerialized(ctx, 0, x.Resolved.NewReduceRun(), mapred.CollectorFunc(func(_, _ wio.Writable) error { return nil }))
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "m3r: resident segment") {
		t.Fatalf("error = %v, want the resident segment's io.ErrUnexpectedEOF", err)
	}
	if held := x.budgets[0].Held(); held != 0 {
		t.Errorf("%d bytes still reserved after the failed merge closed", held)
	}
}
