package m3r

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// swapSpillWrite installs a fault-injecting spill write for one test and
// restores the real one afterwards.
func swapSpillWrite(t *testing.T, fn func(string, spill.EncodedRun) (int64, error)) {
	t.Helper()
	orig := spillWriteRun
	spillWriteRun = fn
	t.Cleanup(func() { spillWriteRun = orig })
}

// newFaultEngine builds an M3R engine over a scratch HDFS with wordcount
// data at /data/t, for driving whole jobs through the spill pipeline.
func newFaultEngine(t *testing.T, places int) *Engine {
	t.Helper()
	backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Options{Backing: backing, Places: places, Stats: sim.NewStats()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := wordcount.Generate(backing, "/data/t", 64<<10, 11); err != nil {
		t.Fatal(err)
	}
	return e
}

// spillingJob returns a WordCount job whose every shuffle run overflows the
// budget (budget 1 byte) and goes through a depth-2 async spill queue.
func spillingJob(out string) *conf.JobConf {
	job := wordcount.NewJob("/data/t", out, 3, true)
	job.SetInt64(conf.KeyM3RShuffleBudget, 1)
	job.SetInt(conf.KeyM3RSpillQueue, 2)
	return job
}

// leftoverSpillDirs counts m3r spill scratch directories still on disk.
func leftoverSpillDirs(t *testing.T) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(os.TempDir(), "m3r-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

// TestSpillWorkerWriteErrorFailsJob injects a hard io failure into the
// spill worker's second write: the job must fail with that error, every
// spill still queued must be cancelled (no write attempted after the
// failure), and stream/buffer accounting must sit at baseline afterwards.
func TestSpillWorkerWriteErrorFailsJob(t *testing.T) {
	injected := errors.New("injected spill device error")
	var calls, after atomic.Int64
	var failed atomic.Bool
	swapSpillWrite(t, func(path string, enc spill.EncodedRun) (int64, error) {
		if failed.Load() {
			after.Add(1)
		}
		if calls.Add(1) == 2 {
			failed.Store(true)
			return 0, injected
		}
		return spill.WriteEncodedFile(path, enc)
	})

	e := newFaultEngine(t, 1)
	streamBase, bufBase := spill.OpenStreamCount(), encodeBufsOut.Load()
	_, err := e.Submit(spillingJob("/out/wc"))
	if err == nil {
		t.Fatal("job with failing spill worker succeeded")
	}
	if !errors.Is(err, injected) {
		t.Fatalf("job error does not carry the injected failure: %v", err)
	}
	if calls.Load() < 2 {
		t.Fatalf("spill worker attempted %d writes, fault never hit", calls.Load())
	}
	if n := after.Load(); n != 0 {
		t.Errorf("%d spill writes attempted after the failure: queued spills were not cancelled", n)
	}
	if got := spill.OpenStreamCount(); got != streamBase {
		t.Errorf("OpenStreamCount %d, baseline %d: leaked spill streams", got, streamBase)
	}
	if got := encodeBufsOut.Load(); got != bufBase {
		t.Errorf("encode buffers out %d, baseline %d: leaked pooled buffers", got, bufBase)
	}
	if n := leftoverSpillDirs(t); n != 0 {
		t.Errorf("%d spill scratch dirs left behind", n)
	}
}

// TestSpillWorkerDiskFullFailsJob simulates the disk filling mid-run-file:
// the worker's write leaves a truncated file and reports ENOSPC. The job
// must fail with ENOSPC, remote-shuffle encode buffers must return to the
// pool (the failure crosses the map flush path of a multi-place shuffle),
// and the partial spill file must be cleaned up with the job.
func TestSpillWorkerDiskFullFailsJob(t *testing.T) {
	var calls atomic.Int64
	swapSpillWrite(t, func(path string, enc spill.EncodedRun) (int64, error) {
		if calls.Add(1) == 1 {
			os.WriteFile(path, []byte("partial run"), 0o644)
			return 0, fmt.Errorf("write %s: %w", path, syscall.ENOSPC)
		}
		return spill.WriteEncodedFile(path, enc)
	})

	e := newFaultEngine(t, 2)
	streamBase, bufBase := spill.OpenStreamCount(), encodeBufsOut.Load()
	_, err := e.Submit(spillingJob("/out/wc"))
	if err == nil {
		t.Fatal("job with full disk succeeded")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("job error does not carry ENOSPC: %v", err)
	}
	if got := spill.OpenStreamCount(); got != streamBase {
		t.Errorf("OpenStreamCount %d, baseline %d", got, streamBase)
	}
	if got := encodeBufsOut.Load(); got != bufBase {
		t.Errorf("encode buffers out %d, baseline %d", got, bufBase)
	}
	if n := leftoverSpillDirs(t); n != 0 {
		t.Errorf("%d spill scratch dirs (with the partial file) left behind", n)
	}
}

// TestSpillWorkerPanicDoesNotHang: a panic under the spill write path must
// convert to a job failure — the worker keeps draining its queue so map
// tasks blocked on a full queue always unblock, and Submit returns.
func TestSpillWorkerPanicDoesNotHang(t *testing.T) {
	swapSpillWrite(t, func(path string, enc spill.EncodedRun) (int64, error) {
		panic("simulated corruption in the spill encoder")
	})

	e := newFaultEngine(t, 1)
	_, err := e.Submit(spillingJob("/out/wc"))
	if err == nil {
		t.Fatal("job with panicking spill worker succeeded")
	}
	if !strings.Contains(err.Error(), "spill worker panicked") {
		t.Fatalf("panic not surfaced as a worker failure: %v", err)
	}
	if n := leftoverSpillDirs(t); n != 0 {
		t.Errorf("%d spill scratch dirs left behind", n)
	}
}

// --- white-box lifecycle: release + readmission ---

// newSpillExec builds a minimal one-place jobExec for exercising the
// partitionInput lifecycle without a cluster.
func newSpillExec(budget int64, queueDepth int, readmit bool, codec spill.Codec) *jobExec {
	e := &Engine{stats: sim.NewStats(), cost: sim.Zero()}
	x := &jobExec{e: e, jobID: "job_test_0001", jc: counters.New(),
		shuffleBudget: budget, readmit: readmit, codec: codec}
	if budget > 0 {
		x.budgets = []*engine.JobBudget{engine.NewBudgetPool(budget).Job(x.jobID, 0)}
		x.resident = []*residentSet{newResidentSet()}
		if queueDepth > 0 {
			x.spillQ = []*spillQueue{newSpillQueue(x, 0, queueDepth)}
		}
	}
	return x
}

// textRun builds a sorted run of (prefix###, i) pairs.
func textRun(prefix string, n int) []wio.Pair {
	out := make([]wio.Pair, n)
	for i := range out {
		out[i] = wio.Pair{Key: types.NewText(fmt.Sprintf("%s%04d", prefix, i)), Value: types.NewInt(int32(i))}
	}
	return out
}

// drainMerge merges readers and returns the marshaled (key,value) stream,
// asserting the accountant ends the merge with zero bytes held.
func drainMerge(t *testing.T, x *jobExec, readers []engine.RunReader) []string {
	t.Helper()
	m, err := engine.NewMergeIter(readers, wio.NaturalOrder{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var out []string
	for {
		p, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		kb, _ := wio.Marshal(p.Key)
		vb, _ := wio.Marshal(p.Value)
		out = append(out, string(kb)+"\x00"+string(vb))
	}
}

// TestBudgetReleaseAndReadmission walks the full lifecycle deterministically:
// a resident run fills the budget, later runs spill, draining the first
// partition releases its bytes (BUDGET_RELEASED_BYTES), and the next
// partition's merge-open readmits its spilled run into the freed budget
// (READMITTED_RUNS) — with the readmitted merge byte-identical to the
// stream-backed one.
func TestBudgetReleaseAndReadmission(t *testing.T) {
	runA, runB, runC := textRun("a", 40), textRun("b", 40), textRun("c", 40)
	_, _, _, size, err := spill.MarshalRun(runA)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: what partition 2's merge must yield, from an unbudgeted run.
	ref := newSpillExec(0, 0, false, spill.CodecNone)
	refPi := &partitionInput{x: ref, place: 0}
	ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
	if err := refPi.addRun(ctx, 0, textRun("c", 40)); err != nil {
		t.Fatal(err)
	}
	refReaders, err := refPi.takeReaders(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := drainMerge(t, ref, refReaders)

	x := newSpillExec(size, 0, true, spill.CodecNone) // budget = exactly one run
	defer x.cleanup()
	pi1 := &partitionInput{x: x, place: 0}
	pi2 := &partitionInput{x: x, place: 0}
	if err := pi1.addRun(ctx, 0, runA); err != nil { // resident, fills budget
		t.Fatal(err)
	}
	if err := pi1.addRun(ctx, 1, runB); err != nil { // overflows: spills
		t.Fatal(err)
	}
	if err := pi2.addRun(ctx, 0, runC); err != nil { // overflows: spills
		t.Fatal(err)
	}
	if got := ctx.Cells.SpilledRuns.Value(); got != 2 {
		t.Fatalf("SpilledRuns=%d want 2", got)
	}
	if got := x.budgets[0].Held(); got != size {
		t.Fatalf("held=%d want %d after collect", got, size)
	}

	// Partition 1 reduces: B cannot readmit (budget still full), so it
	// stream-decodes; draining the merge releases A's reservation.
	streamBase := spill.OpenStreamCount()
	r1, err := pi1.takeReaders(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := spill.OpenStreamCount(); got != streamBase+1 {
		t.Fatalf("OpenStreamCount=%d want %d: run B should be stream-backed", got, streamBase+1)
	}
	if got := len(drainMerge(t, x, r1)); got != 80 {
		t.Fatalf("partition 1 merged %d pairs, want 80", got)
	}
	if got := x.budgets[0].Held(); got != 0 {
		t.Fatalf("held=%d want 0 after partition 1 drained", got)
	}
	if got := ctx.Cells.BudgetReleasedBytes.Value(); got != size {
		t.Fatalf("BudgetReleasedBytes=%d want %d", got, size)
	}
	if got := ctx.Cells.ReadmittedRuns.Value(); got != 0 {
		t.Fatalf("ReadmittedRuns=%d want 0 so far", got)
	}

	// Partition 2 opens with the budget free: C readmits into memory — no
	// stream stays open past the decode — and merges byte-identically.
	r2, err := pi2.takeReaders(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := spill.OpenStreamCount(); got != streamBase {
		t.Fatalf("OpenStreamCount=%d want %d: readmitted run must not hold a stream", got, streamBase)
	}
	if got := ctx.Cells.ReadmittedRuns.Value(); got != 1 {
		t.Fatalf("ReadmittedRuns=%d want 1", got)
	}
	if got := x.budgets[0].Held(); got != size {
		t.Fatalf("held=%d want %d while readmitted run is live", got, size)
	}
	got := drainMerge(t, x, r2)
	if len(got) != len(want) {
		t.Fatalf("readmitted merge %d pairs vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d differs after readmission", i)
		}
	}
	if held := x.budgets[0].Held(); held != 0 {
		t.Fatalf("held=%d want 0 after everything drained", held)
	}
	if rel := ctx.Cells.BudgetReleasedBytes.Value(); rel != 2*size {
		t.Fatalf("BudgetReleasedBytes=%d want %d", rel, 2*size)
	}
}

// FuzzSpillQueue feeds fuzzer-shaped runs through the spill lifecycle at a
// fuzzer-chosen budget, queue depth and spill codec, and pins the three
// invariants the pipeline promises at every setting: the merged stream is
// byte-identical to the synchronous unqueued raw-codec path, no spill
// stream stays open, and the accountant returns to zero once the merge
// drains.
func FuzzSpillQueue(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3), uint8(2), uint8(64), false, false)
	f.Add([]byte("aaaa bbbb aaaa cccc"), uint8(5), uint8(1), uint8(4), true, true)
	f.Add([]byte(""), uint8(1), uint8(0), uint8(0), false, false)
	f.Add([]byte("pad pad pad compress me compress me"), uint8(2), uint8(3), uint8(16), true, true)
	f.Fuzz(func(t *testing.T, data []byte, nruns, depth, budgetScale uint8, readmit, flate bool) {
		runs := int(nruns%6) + 1
		queueDepth := int(depth % 4) // 0 = synchronous
		budget := int64(budgetScale) * 8
		codec := spill.CodecNone
		if flate {
			codec = spill.CodecFlate
		}

		// Slice the fuzz bytes into `runs` sorted runs of Text/Int pairs.
		words := strings.Fields(string(data))
		mkRuns := func() [][]wio.Pair {
			out := make([][]wio.Pair, runs)
			for i, w := range words {
				r := i % runs
				out[r] = append(out[r], wio.Pair{Key: types.NewText(w), Value: types.NewInt(int32(i))})
			}
			for _, pairs := range out {
				engine.SortPairs(pairs, wio.NaturalOrder{})
			}
			return out
		}

		drive := func(budget int64, queueDepth int, readmit bool, codec spill.Codec) []string {
			x := newSpillExec(budget, queueDepth, readmit, codec)
			defer x.cleanup()
			pi := &partitionInput{x: x, place: 0}
			ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
			for src, pairs := range mkRuns() {
				if err := pi.addRun(ctx, src, pairs); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range x.spillQ {
				if err := q.drain(); err != nil {
					t.Fatal(err)
				}
			}
			readers, err := pi.takeReaders(ctx)
			if err != nil {
				t.Fatal(err)
			}
			out := drainMerge(t, x, readers)
			engine.CloseAllOnErr(readers) // idempotent: everything is drained
			if x.budgets != nil {
				if held := x.budgets[0].Held(); held != 0 {
					t.Fatalf("held=%d after full drain", held)
				}
			}
			return out
		}

		streamBase := spill.OpenStreamCount()
		want := drive(0, 0, false, spill.CodecNone) // unbudgeted in-memory reference
		got := drive(budget, queueDepth, readmit, codec)
		if len(got) != len(want) {
			t.Fatalf("budget=%d queue=%d readmit=%v: %d pairs vs %d", budget, queueDepth, readmit, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("budget=%d queue=%d readmit=%v: pair %d differs", budget, queueDepth, readmit, i)
			}
		}
		if n := spill.OpenStreamCount(); n != streamBase {
			t.Fatalf("OpenStreamCount=%d baseline %d", n, streamBase)
		}
	})
}

// TestCompressedSpillChargesStoredBytesAndReadmitsRawSize pins the codec's
// accounting contract end to end: with flate configured, SPILLED_BYTES
// counts the stored (compressed) bytes and SPILLED_RAW_BYTES the raw
// record-format bytes (so stored < raw on repetitive runs); the budget,
// however, keeps accounting in raw in-memory sizes — a readmitted
// compressed run reserves its full raw size, not its compressed one — and
// the merge output stays byte-identical to the raw-codec lifecycle.
func TestCompressedSpillChargesStoredBytesAndReadmitsRawSize(t *testing.T) {
	_, _, _, size, err := spill.MarshalRun(textRun("aaaa", 40))
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the raw-codec lifecycle at identical settings.
	drive := func(codec spill.Codec) ([]string, *engine.TaskContext, *jobExec) {
		x := newSpillExec(size, 0, true, codec) // budget = exactly one run
		pi1 := &partitionInput{x: x, place: 0}
		pi2 := &partitionInput{x: x, place: 0}
		ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
		if err := pi1.addRun(ctx, 0, textRun("aaaa", 40)); err != nil { // resident
			t.Fatal(err)
		}
		if err := pi2.addRun(ctx, 0, textRun("cccc", 40)); err != nil { // spills
			t.Fatal(err)
		}
		r1, err := pi1.takeReaders(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out := drainMerge(t, x, r1) // releases A's reservation
		// Partition 2 opens with budget free: C readmits from its
		// compressed run file.
		r2, err := pi2.takeReaders(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := ctx.Cells.ReadmittedRuns.Value(); got != 1 {
			t.Fatalf("codec %s: ReadmittedRuns=%d want 1", codec, got)
		}
		if held := x.budgets[0].Held(); held != size {
			t.Fatalf("codec %s: readmitted run holds %d budget bytes, want raw size %d", codec, held, size)
		}
		out = append(out, drainMerge(t, x, r2)...)
		return out, ctx, x
	}

	want, refCtx, refX := drive(spill.CodecNone)
	defer refX.cleanup()
	got, ctx, x := drive(spill.CodecFlate)
	defer x.cleanup()

	if len(got) != len(want) {
		t.Fatalf("flate lifecycle yielded %d pairs, raw yielded %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d differs between flate and raw lifecycles", i)
		}
	}
	stored, raw := ctx.Cells.SpilledBytes.Value(), ctx.Cells.SpilledRawBytes.Value()
	if raw == 0 || stored == 0 {
		t.Fatalf("spill accounting silent: stored=%d raw=%d", stored, raw)
	}
	if stored >= raw {
		t.Fatalf("flate spill stored %d bytes >= raw %d on repetitive keys", stored, raw)
	}
	if refStored, refRaw := refCtx.Cells.SpilledBytes.Value(), refCtx.Cells.SpilledRawBytes.Value(); refStored != refRaw {
		t.Fatalf("codec none: stored %d != raw %d — raw layout must charge identical numbers", refStored, refRaw)
	}
	// The engine's stats and disk cost follow the stored bytes.
	if got := x.e.stats.Get(sim.SpillBytes); got != stored {
		t.Fatalf("sim spill.bytes=%d, counters say %d", got, stored)
	}
	if got := x.e.stats.Get(sim.SpillRawBytes); got != raw {
		t.Fatalf("sim spill.raw.bytes=%d, counters say %d", got, raw)
	}
}
