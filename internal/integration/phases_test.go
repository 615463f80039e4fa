package integration_test

import (
	"errors"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/lab"
	"m3r/internal/types"
	"m3r/internal/wordcount"
)

// taskPhases are the phases whose spans open inside a task attempt.
var taskPhases = []engine.Phase{engine.PhaseMap, engine.PhaseSort, engine.PhaseShip, engine.PhaseArrive,
	engine.PhaseSpill, engine.PhaseMergeOpen, engine.PhaseReduce, engine.PhaseCommit}

// checkNested fails every task span of rep that is not inside its job's
// span, [0, Wall] on the job's clock, and a phase whose places do not sum to
// its total.
func checkNested(t *testing.T, rep *engine.Report) {
	t.Helper()
	p := &rep.Phases
	for _, ph := range taskPhases {
		var sum engine.PhaseTime
		for place := range p.Places() {
			pt := p.At(place, ph)
			sum.Nanos += pt.Nanos
			sum.Count += pt.Count
		}
		if sum != p.Total(ph) || sum.Nanos < 0 {
			t.Errorf("%s: places sum to %+v, total %+v", ph, sum, p.Total(ph))
		}
		if sum.Count == 0 {
			continue
		}
		if first, last := p.Window(ph); first < 0 || first > last || last > rep.Wall {
			t.Errorf("%s: spans from %v to %v, outside the job's span of %v", ph, first, last, rep.Wall)
		}
	}
}

// TestReportPhases: on both engines, a job's Report times each phase it
// went through at each place, every task's span lies inside the job's, a
// span is counted once a task attempt, no reducer begins before the last
// map task ends, and the budgeted shuffle and the small sort buffer show
// their spills.
func TestReportPhases(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2, ShuffleBudgetBytes: -1})
	if err := wordcount.Generate(c.FS, "/data/P", 128<<10, 11); err != nil {
		t.Fatal(err)
	}
	for _, eng := range []engine.Engine{c.M3R, c.Hadoop} {
		for _, spilling := range []bool{false, true} {
			// Both knobs explicit, so that no carrier default moves them.
			name, budget, sortBytes := eng.Name(), int64(0), int64(4<<20)
			if spilling {
				name, budget, sortBytes = name+"-spill", 4<<10, 4<<10
			}
			job := wordcount.NewJob("/data/P", "/out/phases-"+name, 3, false)
			job.SetInt64(conf.KeyM3RShuffleBudget, budget)
			job.SetInt64(conf.KeySortBytes, sortBytes)
			t.Run(name, func(t *testing.T) {
				rep, err := eng.Submit(job)
				if err != nil {
					t.Fatal(err)
				}
				p := &rep.Phases
				if p.Places() != 2 {
					t.Fatalf("phases %v, want 2 places", p)
				}
				checkNested(t, rep)
				maps := rep.Counters.Value(counters.JobGroup, counters.TotalLaunchedMaps)
				reduces := rep.Counters.Value(counters.JobGroup, counters.TotalLaunchedReduces)
				if got := p.Total(engine.PhaseMap).Count; got != maps || maps == 0 {
					t.Errorf("%d map spans, %d map tasks", got, maps)
				}
				if got := p.Total(engine.PhaseReduce).Count; got != reduces || reduces != 3 {
					t.Errorf("%d reduce spans, %d reduce tasks", got, reduces)
				}
				for _, ph := range []engine.Phase{engine.PhasePlan, engine.PhaseBarrier, engine.PhaseCleanup} {
					if got := p.Total(ph).Count; got != 1 {
						t.Errorf("%d %s spans, want 1", got, ph)
					}
				}
				// Three reduce tasks' commits and the job's.
				if got := p.Total(engine.PhaseCommit).Count; got != reduces+1 {
					t.Errorf("%d commit spans, want %d", got, reduces+1)
				}
				if p.Total(engine.PhaseSort).Count == 0 || p.Total(engine.PhaseMergeOpen).Count != reduces {
					t.Errorf("sort %+v, merge_open %+v", p.Total(engine.PhaseSort), p.Total(engine.PhaseMergeOpen))
				}
				_, mapEnd := p.Window(engine.PhaseMap)
				if reduceStart, _ := p.Window(engine.PhaseReduce); reduceStart < mapEnd {
					t.Errorf("a reducer began at %v, before the last map task ended at %v", reduceStart, mapEnd)
				}
				// A Hadoop map task always writes at least one spill; an M3R
				// one only over its budget.
				spills := p.Total(engine.PhaseSpill).Count
				if eng == c.Hadoop && spills < maps || eng == c.M3R && spilling != (spills > 0) {
					t.Errorf("%d spill spans", spills)
				}
				if eng == c.M3R && p.Total(engine.PhaseShip).Count == 0 {
					t.Error("no shipped buffer on a two-place shuffle")
				}
			})
		}
	}
}

// TestFailedJobReportsItsPhases: a job that fails in its reducers, or runs
// past its deadline mid-map, still returns its Report, which carries the
// phases it reached and none it did not.
func TestFailedJobReportsItsPhases(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2, ShuffleBudgetBytes: -1})
	if err := wordcount.Generate(c.FS, "/data/F", 64<<10, 5); err != nil {
		t.Fatal(err)
	}
	for _, eng := range []engine.Engine{c.M3R, c.Hadoop} {
		t.Run(eng.Name()+"/reduce fails", func(t *testing.T) {
			job := wordcount.NewJob("/data/F", "/out/failing-"+eng.Name(), 2, false)
			job.SetReducerClass("test.FailingReducer")
			job.SetInt(conf.KeyMaxReduceAttempts, 1)
			rep, err := eng.Submit(job)
			if err == nil || rep == nil || rep.Phases.Places() == 0 {
				t.Fatalf("error %v, report %v", err, rep)
			}
			checkNested(t, rep)
			p := &rep.Phases
			if p.Total(engine.PhaseMap).Count == 0 || p.Total(engine.PhaseReduce).Count == 0 {
				t.Errorf("map %+v, reduce %+v: the phases reached are missing", p.Total(engine.PhaseMap), p.Total(engine.PhaseReduce))
			}
			if got := p.Total(engine.PhaseCommit).Count; got != 0 {
				t.Errorf("%d commit spans in a job whose reducers all failed", got)
			}
		})
		t.Run(eng.Name()+"/deadline", func(t *testing.T) {
			job := conf.NewJob()
			job.SetJobName("deadline-phases")
			job.AddInputPath("/data/F")
			job.SetOutputPath("/out/deadline-phases-" + eng.Name())
			job.SetMapperClass("test.SlowMapper")
			job.SetReducerClass("test.GateReducer")
			job.SetNumReduceTasks(2)
			job.SetMapOutputKeyClass(types.TextName)
			job.SetMapOutputValueClass(types.IntName)
			job.SetOutputKeyClass(types.TextName)
			job.SetOutputValueClass(types.IntName)
			job.SetInt(conf.KeyJobDeadlineMS, 50)
			rep, err := eng.Submit(job)
			if !errors.Is(err, engine.ErrDeadlineExceeded) || rep == nil || rep.Phases.Places() == 0 {
				t.Fatalf("error %v, report %v", err, rep)
			}
			checkNested(t, rep)
			p := &rep.Phases
			if p.Total(engine.PhasePlan).Count != 1 || p.Total(engine.PhaseMap).Count == 0 {
				t.Errorf("plan %+v, map %+v: the phases reached are missing", p.Total(engine.PhasePlan), p.Total(engine.PhaseMap))
			}
			for _, ph := range []engine.Phase{engine.PhaseBarrier, engine.PhaseReduce, engine.PhaseCommit} {
				if got := p.Total(ph).Count; got != 0 {
					t.Errorf("%d %s spans in a job killed mid-map", got, ph)
				}
			}
		})
	}
}
