package m3r

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/engine"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// TestLargestFirstEvictionKeepsSmallRuns is the policy's deterministic pin:
// with a budget that exactly fits one big run, a big run arrives first and
// goes resident; a later, smaller run contends — and instead of spilling the
// newcomer (first-come, the old policy), the pool evicts the big resident
// run to disk and keeps the small one in memory, then admits a second small
// run into the remaining freed budget with no further eviction. The merged
// output stays byte-identical to the unbudgeted path and the job's budget
// drains to zero.
func TestLargestFirstEvictionKeepsSmallRuns(t *testing.T) {
	big, smallB, smallC := textRun("aaaaaa", 60), textRun("b", 10), textRun("c", 10)
	bigSize := groupedSize(t, big)
	smallSize := groupedSize(t, smallB)
	if 2*smallSize > bigSize {
		t.Fatalf("test geometry broken: 2*small=%d > big=%d", 2*smallSize, bigSize)
	}

	// Unbudgeted reference for the byte-identity check.
	ref := newSpillExec(0, spill.CodecNone, 1)
	ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
	for src, pairs := range [][]wio.Pair{textRun("aaaaaa", 60), textRun("b", 10), textRun("c", 10)} {
		installRun(t, ref, ctx, 0, src, pairs)
	}
	want := drainMerge(t, ref, ctx, 0)

	x := newSpillExec(bigSize, spill.CodecNone, 1) // budget = exactly the big run
	defer x.cleanup()
	ctx = engine.NewTaskContext(conf.NewJob(), "task", nil)

	installRun(t, x, ctx, 0, 0, big)
	if got := x.budgets[0].Held(); got != bigSize {
		t.Fatalf("held=%d want %d after the big run", got, bigSize)
	}
	if got := x.resident[0].Len(); got != 1 {
		t.Fatalf("resident index holds %d runs, want 1", got)
	}

	// The small run contends; the big run is the victim, not the newcomer.
	installRun(t, x, ctx, 0, 1, smallB)
	if got := ctx.Cells.EvictedResidentRuns.Value(); got != 1 {
		t.Fatalf("EVICTED_RESIDENT_RUNS=%d want 1", got)
	}
	if got := ctx.Cells.SpilledRuns.Value(); got != 1 {
		t.Fatalf("SpilledRuns=%d want 1 (the evicted big run)", got)
	}
	if got := ctx.Cells.PoolContendedBytes.Value(); got != smallSize {
		t.Fatalf("POOL_CONTENDED_BYTES=%d want %d", got, smallSize)
	}
	if got := x.budgets[0].Held(); got != smallSize {
		t.Fatalf("held=%d want %d: small resident, big on disk", got, smallSize)
	}

	// A second small run fits the freed budget outright: no new eviction.
	installRun(t, x, ctx, 0, 2, smallC)
	if got := ctx.Cells.EvictedResidentRuns.Value(); got != 1 {
		t.Fatalf("EVICTED_RESIDENT_RUNS=%d after an uncontended admit, want 1", got)
	}
	if got := x.budgets[0].Held(); got != 2*smallSize {
		t.Fatalf("held=%d want %d: both small runs resident", got, 2*smallSize)
	}

	// The big run's slot flipped in place: still src 0, now spilled, so the
	// merge's source-order tie-break — and the output bytes — are untouched.
	if run := x.parts[0].runs[0]; run.src != 0 || run.spillPath == "" {
		t.Fatalf("slot 0 holds src %d, spilled=%v: want the evicted big run, in place", run.src, run.spillPath != "")
	}
	assertSameStream(t, "merge after eviction", drainMerge(t, x, ctx, 0), want)
	if held := x.budgets[0].Held(); held != 0 {
		t.Fatalf("held=%d want 0 after the merge drained", held)
	}
}

// TestEvictionNeverTradesForEqualOrLarger: a newcomer the same size as (or
// larger than) every resident run must spill itself — evicting an
// equal-sized run would churn disk for zero resident gain, and evicting a
// smaller one would be the opposite of the policy.
func TestEvictionNeverTradesForEqualOrLarger(t *testing.T) {
	runA, runB := textRun("a", 20), textRun("b", 20) // identical sizes
	size := groupedSize(t, runA)
	x := newSpillExec(size, spill.CodecNone, 1)
	defer x.cleanup()
	ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
	installRun(t, x, ctx, 0, 0, runA)
	installRun(t, x, ctx, 0, 1, runB)
	if got := ctx.Cells.EvictedResidentRuns.Value(); got != 0 {
		t.Fatalf("EVICTED_RESIDENT_RUNS=%d: evicted an equal-sized run", got)
	}
	if got := ctx.Cells.SpilledRuns.Value(); got != 1 {
		t.Fatalf("SpilledRuns=%d want 1 (the newcomer)", got)
	}
	if got := x.budgets[0].Held(); got != size {
		t.Fatalf("held=%d want %d: first run still resident", got, size)
	}
}

// TestEvictionWriteErrorFailsAdmission: a disk failure during the eviction
// re-spill must surface through the flush — and with it fail the map task —
// with the victim's reservation state consistent (the victim was claimed but
// its bytes never released, so the job's cleanup drain reclaims them).
func TestEvictionWriteErrorFailsAdmission(t *testing.T) {
	injected := errors.New("injected eviction write error")
	swapSpillWrite(t, func(string, spill.EncodedRun) (int64, error) { return 0, injected })

	big, small := textRun("aaaaaa", 60), textRun("b", 10)
	bigSize := groupedSize(t, big)
	x := newSpillExec(bigSize, spill.CodecNone, 1)
	ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
	installRun(t, x, ctx, 0, 0, big) // resident: no write involved
	if err := tryInstallRun(x, ctx, 0, 1, small); !errors.Is(err, injected) {
		t.Fatalf("eviction write error not surfaced: %v", err)
	}
	// The failed job's cleanup still returns every byte.
	x.cleanup()
	if held := x.budgets[0].Held(); held != 0 {
		t.Fatalf("held=%d after cleanup of a failed job", held)
	}
}

// TestInstallRunsAdmitsInPartitionOrder pins the flush order: a task's runs
// are admitted partition by partition, ascending, so which of them the pool
// keeps and which it spills is a function of the input alone. Eight equal
// runs against a budget for two: partitions 0 and 1 stay resident and 2..7
// spill, every time (equal sizes never evict one another).
func TestInstallRunsAdmitsInPartitionOrder(t *testing.T) {
	const parts = 8
	size := groupedSize(t, textRun("k", 20))
	for round := 0; round < 20; round++ {
		x := newSpillExec(2*size+size/2, spill.CodecNone, parts)
		runs := make([][]wio.Pair, parts)
		for q := range runs {
			runs[q] = textRun("k", 20)
		}
		ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
		if err := flushRuns(x, ctx, 0, runs); err != nil {
			t.Fatal(err)
		}
		for q, pi := range x.parts {
			if len(pi.runs) != 1 {
				t.Fatalf("round %d: partition %d holds %d runs, want 1", round, q, len(pi.runs))
			}
			if resident := pi.runs[0].spillPath == ""; resident != (q < 2) {
				t.Fatalf("round %d: partition %d resident=%v; want partitions 0 and 1 resident, the rest spilled",
					round, q, resident)
			}
		}
		if got := ctx.Cells.SpilledRuns.Value(); got != parts-2 {
			t.Fatalf("round %d: SpilledRuns=%d want %d", round, got, parts-2)
		}
		x.cleanup()
	}
}

// TestResidentBytesInvariant: at the shuffle barrier the segments resident at
// a place are no more bytes than the job holds reserved there — exactly as
// many, since a run reserves its grouped bytes. It holds through admission,
// eviction and overflow, and a run resident without its reservation — the
// over-commit the check exists to catch — breaks it.
func TestResidentBytesInvariant(t *testing.T) {
	big, small := textRun("aaaaaa", 60), textRun("b", 10)
	bigSize := groupedSize(t, big)
	x := newSpillExec(bigSize, spill.CodecNone, 2)
	defer x.cleanup()
	ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
	installRun(t, x, ctx, 0, 0, big)              // resident
	installRun(t, x, ctx, 1, 1, small)            // evicts the big run
	installRun(t, x, ctx, 0, 2, textRun("c", 60)) // overflows
	if err := x.checkResidentBytes(0); err != nil {
		t.Fatal(err)
	}
	var resident int64
	for _, pi := range x.parts {
		for _, r := range pi.runs {
			resident += int64(len(r.seg))
		}
	}
	if held := x.budgets[0].Held(); resident == 0 || resident != held {
		t.Fatalf("%d resident segment bytes against %d reserved: want some, and exactly the reservation", resident, held)
	}
	x.parts[0].install(&sourceRun{src: 3, serializedRun: &serializedRun{seg: make([]byte, bigSize)}})
	if err := x.checkResidentBytes(0); err == nil {
		t.Fatal("a segment resident without a reservation passed the barrier check")
	}
}

// TestEvictedRunReadsLikeItsResidentSegment: a resident run and the spill
// file its eviction writes yield the same record stream — the same keys and
// values, in order, with a key group wherever the resident run has one —
// under either codec, in blocks small enough that the file restates keys.
func TestEvictedRunReadsLikeItsResidentSegment(t *testing.T) {
	spill.GroupedBlockBytes.Store(64)
	defer spill.GroupedBlockBytes.Store(0)
	var hot []wio.Pair
	for i := 0; i < 30; i++ {
		for j := 0; j <= i%7; j++ {
			hot = append(hot, wio.Pair{Key: types.NewText(fmt.Sprintf("k%02d", i)), Value: types.NewInt(int32(j))})
		}
	}
	size := groupedSize(t, hot)
	for _, codec := range []spill.Codec{spill.CodecNone, spill.CodecFlate} {
		x := newSpillExec(size, codec, 1)
		ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
		installRun(t, x, ctx, 0, 0, hot)
		run := x.parts[0].runs[0]
		if run.seg == nil {
			t.Fatalf("%s: the run is not resident", codec)
		}
		var resident segmentSource
		resident.c.Reset(run.seg)
		want := readRecs(t, &resident)
		installRun(t, x, ctx, 0, 1, textRun("b", 2)) // evicts the hot run
		if run.spillPath == "" || ctx.Cells.EvictedResidentRuns.Value() != 1 {
			t.Fatalf("%s: the hot run was not evicted", codec)
		}
		s, err := spill.OpenFile(run.spillPath)
		if err != nil {
			t.Fatal(err)
		}
		got := readRecs(t, s)
		s.Close()
		if len(got) != len(want) || len(want) != len(hot) {
			t.Fatalf("%s: %d records resident, %d spilled, %d collected", codec, len(want), len(got), len(hot))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d reads %+v resident and %+v spilled", codec, i, want[i], got[i])
			}
		}
		x.cleanup()
	}
}

// streamRec is a record as read off a RecSource: its bytes, and whether its
// key is its predecessor's — the same slice, or, after a block boundary,
// the same bytes.
type streamRec struct {
	k, v      string
	sameGroup bool
}

func readRecs(t *testing.T, src engine.RecSource) []streamRec {
	t.Helper()
	var out []streamRec
	var prev []byte
	for {
		r, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, streamRec{string(r.K), string(r.V), prev != nil && bytes.Equal(r.K, prev)})
		prev = bytes.Clone(r.K)
	}
}
