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
// with or without its combiner, ready for collectors to be made on it.
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
	x := &jobExec{e: e, job: job, rj: rj, jobID: "job_test_0001", lc: lc, jc: counters.New()}
	for q := 0; q < rj.NumReducers; q++ {
		x.parts = append(x.parts, &partitionInput{x: x, place: e.PlaceOfPartition(q)})
	}
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
	ctx := engine.NewTaskContext(x.job, fmt.Sprintf("task%d", task), nil)
	sc := x.newShuffleCollector(&mapAssignment{index: task}, ctx)
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

// TestSecondMapTaskCollectsWithoutRegrowing pins what the collect mark is
// for: the first map task of a combiner job grows its collect buffers from
// nil by doubling, which allocates two to four times the 32 bytes a pair
// occupies; the next task of the same shape takes them at the size the
// first one filled.
func TestSecondMapTaskCollectsWithoutRegrowing(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's allocations are not the program's")
	}
	x := markTestExec(t, true)
	const n = 20000
	keys := markTestKeys(n, 1000)
	first := float64(collectTask(t, x, 0, keys)) / n
	second := float64(collectTask(t, x, 1, keys)) / n
	if first < 64 {
		t.Errorf("first task allocated %.1f bytes per collected pair: expected the cost of growing from nil (64 or more)", first)
	}
	if second > 40 {
		t.Errorf("second task allocated %.1f bytes per collected pair, want at most 40: one buffer per partition at the mark", second)
	}
	for q, pi := range x.parts {
		if mark := pi.collectMark.Load(); mark == 0 || mark > n {
			t.Errorf("partition %d: collect mark %d after two tasks of %d pairs", q, mark, n)
		}
	}
}

// TestSmallTaskAfterLargeHoldsNoSlack is the mark's other side: it follows
// the job's largest task and never decays, so nothing sized from it may
// outlive a task, and a task far smaller than the largest must not pay for
// the largest's buffers. After one task of 20 000 pairs, tasks of 10 pairs
// install runs no roomier than a slice grown from nil (the retained run is
// what the shuffle budget cannot see the capacity of), and with a combiner
// allocate no more at collect than the first chunk of each partition.
func TestSmallTaskAfterLargeHoldsNoSlack(t *testing.T) {
	for _, combiner := range []bool{true, false} {
		t.Run(fmt.Sprintf("combiner=%v", combiner), func(t *testing.T) {
			x := markTestExec(t, combiner)
			collectTask(t, x, 0, markTestKeys(20000, 1000))
			small := markTestKeys(10, 10)
			for task := 1; task <= 3; task++ {
				allocated := collectTask(t, x, task, small)
				// A pair is 32 bytes; the quarter over is the allocator's
				// size-class rounding.
				if limit := uint64(len(x.parts) * collectChunk * 32 * 5 / 4); !testenv.Race && allocated > limit {
					t.Errorf("task %d collected %d pairs and allocated %d bytes doing it, want at most %d",
						task, len(small), allocated, limit)
				}
			}
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
			if installed != 3*len(small) {
				t.Errorf("small tasks installed %d resident pairs, want %d", installed, 3*len(small))
			}
		})
	}
}
