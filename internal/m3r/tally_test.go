package m3r

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/mapred"
	"m3r/internal/sim"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// The engine's cloned/aliased/local pair stats are summed from each task's
// counter cells when the task ends. These tests hold the sums to what a
// per-record count would have reported: one per Collect the mapper saw
// succeed, on every way a task can end.

// tallyProbe is what a test shares with the mappers of its job. An attempt,
// its Collect and its count are one critical section: with two workers, the
// attempt that kills the job would otherwise pass a second task that has
// taken the number before it and not yet collected, and the pairs handled
// before the kill would be one short of the attempts.
type tallyProbe struct {
	mu        sync.Mutex
	calls     atomic.Int64 // Collect calls attempted, over every task
	collected atomic.Int64 // those that returned nil
	failAt    int64        // the attempt that fails in its place (0: none)
	killAt    int64        // the attempt before which the job is killed (0: none)
	kill      func()
}

var (
	tallyProbes     sync.Map // test.tally.id -> *tallyProbe
	errTallyMapFail = errors.New("injected map failure")
)

// tallyMapper is WordCount's mapper without the ImmutableOutput marker, so
// the engine clones what it collects, counting its Collect calls.
type tallyMapper struct {
	mapred.Base
	p *tallyProbe
}

func (m *tallyMapper) Configure(job *conf.JobConf) {
	v, _ := tallyProbes.Load(job.Get("test.tally.id"))
	m.p = v.(*tallyProbe)
}

func (m *tallyMapper) Map(_, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	for _, tok := range bytes.Fields(value.(*types.Text).B) {
		if err := m.p.collect(out, tok); err != nil {
			return err
		}
	}
	return nil
}

func (p *tallyProbe) collect(out mapred.OutputCollector, tok []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.calls.Add(1) {
	case p.failAt:
		return errTallyMapFail
	case p.killAt:
		p.kill()
	}
	if err := out.Collect(&types.Text{B: tok}, types.NewInt(1)); err != nil {
		return err
	}
	p.collected.Add(1)
	return nil
}

func init() {
	mapred.RegisterMapper("test.TallyMapper", func() mapred.Mapper { return &tallyMapper{} })
}

// tallyJob is WordCount over /data/t without a combiner, so every Collect
// goes straight to its partition.
func tallyJob(t *testing.T, p *tallyProbe, reducers int) *conf.JobConf {
	t.Helper()
	tallyProbes.Store(t.Name(), p)
	t.Cleanup(func() { tallyProbes.Delete(t.Name()) })
	job := conf.NewJob()
	job.SetJobName("tally")
	job.Set("test.tally.id", t.Name())
	job.SetInputFormatClass(formats.TextInputFormatName)
	job.SetOutputFormatClass(formats.TextOutputFormatName)
	job.AddInputPath("/data/t")
	job.SetOutputPath("/out/tally" + strconv.Itoa(reducers))
	job.SetNumReduceTasks(reducers)
	job.SetMapperClass("test.TallyMapper")
	job.SetReducerClass(wordcount.SumReducerName)
	job.SetMapOutputKeyClass(types.TextName)
	job.SetMapOutputValueClass(types.IntName)
	job.SetOutputKeyClass(types.TextName)
	job.SetOutputValueClass(types.IntName)
	return job
}

func TestPairStatsEqualCollectCalls(t *testing.T) {
	pairStats := func(e *Engine) (cloned, aliased, local int64) {
		s := e.Stats()
		return s.Get(sim.ClonedPairs), s.Get(sim.AliasedPairs), s.Get(sim.LocalPairs)
	}

	// One place, so every pair is co-located: cloned on the way into the
	// shuffle and delivered locally, once per Collect.
	t.Run("success", func(t *testing.T) {
		for _, places := range []int{1, 2} {
			e := newFaultEngine(t, places)
			p := &tallyProbe{}
			report, err := e.Submit(tallyJob(t, p, places))
			if err != nil {
				t.Fatal(err)
			}
			cloned, aliased, local := pairStats(e)
			jc := report.Counters
			if want := jc.Value(counters.M3RGroup, counters.ClonedPairs); cloned != want {
				t.Errorf("%d places: cloned.pairs %d, job counter %d", places, cloned, want)
			}
			// The marked reducer's output is aliased into the cache.
			if want := jc.Value(counters.M3RGroup, counters.AliasedPairs); aliased != want || aliased == 0 {
				t.Errorf("%d places: aliased.pairs %d, job counter %d (want equal and non-zero)", places, aliased, want)
			}
			if want := jc.Value(counters.M3RGroup, counters.LocalShufflePairs); local != want {
				t.Errorf("%d places: local.pairs %d, job counter %d", places, local, want)
			}
			collected := p.collected.Load()
			if cloned != local || local > collected || (places == 1 && local != collected) || local == 0 {
				t.Errorf("%d places: cloned.pairs %d, local.pairs %d, mapper collected %d", places, cloned, local, collected)
			}
		}
	})

	// A task that fails on its Nth record has handled N-1; the other task
	// runs to its end. Both report what they collected.
	t.Run("map failure", func(t *testing.T) {
		e := newFaultEngine(t, 1)
		p := &tallyProbe{failAt: 500}
		if _, err := e.Submit(tallyJob(t, p, 1)); !errors.Is(err, errTallyMapFail) {
			t.Fatalf("job error = %v, want the injected map failure", err)
		}
		cloned, aliased, local := pairStats(e)
		if collected := p.collected.Load(); cloned != collected || local != collected || aliased != 0 || collected < 499 {
			t.Errorf("cloned.pairs %d, aliased.pairs %d, local.pairs %d; mapper collected %d", cloned, aliased, local, collected)
		}
	})

	// After a kill every Collect is refused; what went before is counted.
	t.Run("kill in map phase", func(t *testing.T) {
		e := newFaultEngine(t, 1)
		lc := engine.NewJobLifecycle()
		p := &tallyProbe{killAt: 500, kill: func() { lc.Kill(engine.ErrJobKilled) }}
		if _, err := e.SubmitControlled(tallyJob(t, p, 1), lc); !errors.Is(err, engine.ErrJobKilled) {
			t.Fatalf("job error = %v, want ErrJobKilled", err)
		}
		cloned, aliased, local := pairStats(e)
		if collected := p.collected.Load(); cloned != collected || local != collected || aliased != 0 || collected < 499 {
			t.Errorf("cloned.pairs %d, aliased.pairs %d, local.pairs %d; mapper collected %d", cloned, aliased, local, collected)
		}
	})

	// A combiner job's pairs go into combine tables, which clone an unmarked
	// mapper's key only when it opens an entry: cloned.pairs (aliased.pairs
	// under a marked mapper) still counts one per pair collected.
	t.Run("through combine tables", func(t *testing.T) {
		for _, marked := range []bool{false, true} {
			e := newFaultEngine(t, 1)
			report, err := e.Submit(wordcount.NewJob("/data/t", fmt.Sprintf("/out/tablestats%v", marked), 2, marked))
			if err != nil {
				t.Fatal(err)
			}
			jc := report.Counters
			collected := jc.Value(counters.TaskGroup, counters.MapOutputRecords)
			combined := jc.Value(counters.M3RGroup, counters.LocalShufflePairs)
			reduced := jc.Value(counters.TaskGroup, counters.ReduceOutputRecords)
			cloned, aliased, _ := pairStats(e)
			// Aliased besides: every combined pair on its way into its run,
			// and the marked reducer's output into the cache.
			wantCloned, wantAliased := collected, combined+reduced
			if marked {
				wantCloned, wantAliased = 0, collected+combined+reduced
			}
			if collected == 0 || combined == 0 || combined >= collected || cloned != wantCloned || aliased != wantAliased {
				t.Errorf("marked=%v: %d collected, %d combined, %d reduced: cloned.pairs %d (want %d), aliased.pairs %d (want %d)",
					marked, collected, combined, reduced, cloned, wantCloned, aliased, wantAliased)
			}
		}
	})
}
