package m3r

import (
	"fmt"
	"runtime"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/testenv"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// markTestExec is a jobExec for WordCount over four partitions at one place,
// with or without its combiner, laid out for four map tasks whose
// collectors are made on it.
func markTestExec(t *testing.T, combiner bool) *jobExec {
	t.Helper()
	e := newFaultEngine(t, 1)
	job := wordcount.NewJob("/data/t", "/out/mark", 4, true)
	if !combiner {
		job.Unset(conf.KeyCombinerClass)
	}
	rj, err := engine.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	// As Submit does: the marked mapper's pairs are aliased, so a Collect
	// allocates nothing but buffer space.
	rj.SubstituteImmutableRunner()
	lc := engine.NewJobLifecycle()
	t.Cleanup(lc.Stop)
	x := &jobExec{e: e, Job: &engine.Job{ID: "job_test_0001", Conf: job, Resolved: rj, Lifecycle: lc, Counters: counters.New()}}
	for q := 0; q < rj.NumReducers; q++ {
		x.parts = append(x.parts, &partitionInput{x: x, place: e.PlaceOfPartition(q)})
	}
	layOutMapTasks(x, 4)
	return x
}

// markTestKeys returns n Text keys cycling through distinct words.
func markTestKeys(n, distinct int) []wio.Writable {
	keys := make([]wio.Writable, n)
	for i := range keys {
		keys[i] = types.NewText(fmt.Sprintf("word%04d", i%distinct))
	}
	return keys
}

// collectTask runs one map task's Collect calls over keys and its flush,
// and returns the bytes the Collect calls alone allocated.
func collectTask(t *testing.T, x *jobExec, task int, keys []wio.Writable) uint64 {
	t.Helper()
	one := types.NewInt(1)
	ctx := engine.NewTaskContext(x.Conf, fmt.Sprintf("task%d", task), nil)
	sc := x.newShuffleCollector(&x.maps[task], ctx)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		if err := sc.Collect(k, one); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if err := sc.flush(); err != nil {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestSmallTaskAfterLargeHoldsNoSlack: nothing a task allocates is sized
// from an earlier, larger task of the job. After one task of 20 000 pairs,
// tasks of 10 pairs install runs no roomier than a slice grown from nil (the
// retained run is what the shuffle budget cannot see the capacity of).
func TestSmallTaskAfterLargeHoldsNoSlack(t *testing.T) {
	for _, combiner := range []bool{false} {
		t.Run(fmt.Sprintf("combiner=%v", combiner), func(t *testing.T) {
			x := markTestExec(t, combiner)
			collectTask(t, x, 0, markTestKeys(20000, 1000))
			small := markTestKeys(10, 10)
			for task := 1; task <= 3; task++ {
				allocated := collectTask(t, x, task, small)
				// A pair is 32 bytes; 64 of them a partition, and a quarter
				// over, leaves room for what the runtime itself allocates
				// meanwhile (TotalAlloc is the whole process's).
				if limit := uint64(len(x.parts) * 64 * 32 * 5 / 4); !testenv.Race && allocated > limit {
					t.Errorf("task %d collected %d pairs and allocated %d bytes doing it, want at most %d",
						task, len(small), allocated, limit)
				}
			}
			checkSmallRuns(t, x, 3*len(small))
		})
	}
}

// TestSmallTaskAfterLargeGetsSmallTables is the same for a combiner job,
// whose collected pairs go into one engine.CombineTable per partition: a
// table starts at a handful of slots and grows with the keys it sees, so a
// 10-pair task allocates at most 1 KiB per partition for its tables — the
// table, its combiner and a few slots, entries and value nodes — whatever
// the task before it held. TotalAlloc is the whole process's, so the
// smallest of three tasks is what is held to the bound.
func TestSmallTaskAfterLargeGetsSmallTables(t *testing.T) {
	x := markTestExec(t, true)
	collectTask(t, x, 0, markTestKeys(20000, 1000))
	small := markTestKeys(10, 10)
	least := ^uint64(0)
	for task := 1; task <= 3; task++ {
		least = min(least, collectTask(t, x, task, small))
	}
	if limit := uint64(len(x.parts) * 1024); !testenv.Race && least > limit {
		t.Errorf("a task collecting %d pairs allocated %d bytes doing it, want at most %d", len(small), least, limit)
	}
	checkSmallRuns(t, x, 3*len(small))
}

// checkSmallRuns holds every resident run but task 0's to at most twice its
// length in capacity, and their pairs to want in total.
func checkSmallRuns(t *testing.T, x *jobExec, want int) {
	t.Helper()
	installed := 0
	for q, pi := range x.parts {
		for _, r := range pi.runs {
			if r.src == 0 || r.pairs == nil {
				continue
			}
			installed += len(r.pairs)
			if cap(r.pairs) > 2*len(r.pairs) {
				t.Errorf("partition %d, task %d: run of %d pairs retained at capacity %d",
					q, r.src, len(r.pairs), cap(r.pairs))
			}
		}
	}
	if installed != want {
		t.Errorf("small tasks installed %d resident pairs, want %d", installed, want)
	}
}
