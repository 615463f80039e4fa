package m3r

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
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
	"m3r/internal/testenv"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
	"m3r/internal/x10"
)

// swapSpillWrite installs a fault-injecting spill write for one test and
// restores the real one afterwards.
func swapSpillWrite(t *testing.T, fn func(string, spill.EncodedRun) (int64, error)) {
	t.Helper()
	orig := spillWriteRun
	spillWriteRun = fn
	t.Cleanup(func() { spillWriteRun = orig })
}

// newFaultEngine builds an M3R engine with a roomy per-place shuffle pool
// over a scratch HDFS with wordcount data at /data/t, for driving whole
// jobs through the spill path.
func newFaultEngine(t *testing.T, places int) *Engine {
	t.Helper()
	return newFaultEngineOver(t, places, nil)
}

// newFaultEngineOver is newFaultEngine with its cross-place frames carried
// by tr (nil: the in-process loopback).
func newFaultEngineOver(t *testing.T, places int, tr x10.Transport) *Engine {
	t.Helper()
	// The engine makes its spill scratch under os.TempDir and these tests
	// count what is left there; a private one keeps packages tested in
	// parallel with this one out of the count.
	t.Setenv("TMPDIR", t.TempDir())
	backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Options{Backing: backing, Places: places, ShuffleBudgetBytes: 1 << 20, Transport: tr, Stats: sim.NewStats()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := wordcount.Generate(backing, "/data/t", 64<<10, 11); err != nil {
		t.Fatal(err)
	}
	return e
}

// spillingJob returns a WordCount job capped at 4 KiB of the pool: most of
// its shuffle runs overflow (or are evicted) and are written to disk by
// their map task, and the few that stay resident hold pool bytes a failed
// job must hand back.
func spillingJob(out string) *conf.JobConf {
	job := wordcount.NewJob("/data/t", out, 3, true)
	job.SetInt64(conf.KeyM3RShuffleBudget, 4<<10)
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

// assertSpillBaselines checks what every failed spilling job must leave
// behind: no open spill stream, no checked-out encode buffer, nothing held
// in the engine pool, no scratch directory.
func assertSpillBaselines(t *testing.T, e *Engine, streamBase, bufBase int64) {
	t.Helper()
	if got := spill.OpenStreamCount(); got != streamBase {
		t.Errorf("OpenStreamCount %d, baseline %d: leaked spill streams", got, streamBase)
	}
	if got := encodeBufsOut.Load(); got != bufBase {
		t.Errorf("encode buffers out %d, baseline %d: leaked pooled buffers", got, bufBase)
	}
	if held := e.ShufflePoolHeldBytes(); held != 0 {
		t.Errorf("pool holds %d bytes after the failed job", held)
	}
	if n := leftoverSpillDirs(t); n != 0 {
		t.Errorf("%d spill scratch dirs left behind", n)
	}
}

// TestSpillWorkerWriteErrorFailsJob injects a hard io failure into the
// second inline spill write: the job must fail with that error, and
// stream/buffer/pool accounting must sit at baseline afterwards.
func TestSpillWorkerWriteErrorFailsJob(t *testing.T) {
	injected := errors.New("injected spill device error")
	var calls atomic.Int64
	swapSpillWrite(t, func(path string, enc spill.EncodedRun) (int64, error) {
		if calls.Add(1) == 2 {
			return 0, injected
		}
		return spill.WriteEncodedFile(path, enc)
	})

	e := newFaultEngine(t, 1)
	streamBase, bufBase := spill.OpenStreamCount(), encodeBufsOut.Load()
	_, err := e.Submit(spillingJob("/out/wc"))
	if err == nil {
		t.Fatal("job with a failing spill write succeeded")
	}
	if !errors.Is(err, injected) {
		t.Fatalf("job error does not carry the injected failure: %v", err)
	}
	if calls.Load() < 2 {
		t.Fatalf("%d spill writes attempted, fault never hit", calls.Load())
	}
	assertSpillBaselines(t, e, streamBase, bufBase)
}

// TestSpillWorkerDiskFullFailsJob simulates the disk filling mid-run-file:
// the write leaves a truncated file and reports ENOSPC. The job must fail
// with ENOSPC, remote-shuffle encode buffers must return to the pool (the
// failure crosses the map flush path of a multi-place shuffle), and the
// partial spill file must be cleaned up with the job.
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
	assertSpillBaselines(t, e, streamBase, bufBase)
}

// TestSpillWorkerPanicDoesNotHang: a panic under the spill write path must
// convert to a job failure — the flushing map task recovers it — and
// Submit returns with every baseline restored.
func TestSpillWorkerPanicDoesNotHang(t *testing.T) {
	swapSpillWrite(t, func(path string, enc spill.EncodedRun) (int64, error) {
		panic("simulated corruption in the spill encoder")
	})

	e := newFaultEngine(t, 1)
	streamBase, bufBase := spill.OpenStreamCount(), encodeBufsOut.Load()
	_, err := e.Submit(spillingJob("/out/wc"))
	if err == nil {
		t.Fatal("job with a panicking spill write succeeded")
	}
	if !strings.Contains(err.Error(), "panicked: simulated corruption") {
		t.Fatalf("panic not surfaced as a task failure: %v", err)
	}
	assertSpillBaselines(t, e, streamBase, bufBase)
}

// TestAbortDropsBufferedPairs pins what a failed map task leaves in its
// collector: the kill surfaces in Collect with pairs buffered for the
// combiner and a remote encode buffer checked out, and abort hands the
// buffer back and drops every buffered pair — the combine tables too, so
// they are collectable while the rest of the job is still winding down.
func TestAbortDropsBufferedPairs(t *testing.T) {
	e := newFaultEngine(t, 2)
	bufBase := encodeBufsOut.Load()
	job := wordcount.NewJob("/data/t", "/out/abort", 2, true)
	rj, err := engine.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	lc := engine.NewJobLifecycle()
	defer lc.Stop()
	x := &jobExec{e: e, Job: &engine.Job{ID: "job_test_0001", Conf: job, Resolved: rj, Lifecycle: lc, Counters: counters.New()}, dedup: true}
	for q := 0; q < rj.NumReducers; q++ {
		x.parts = append(x.parts, &partitionInput{x: x, place: e.PlaceOfPartition(q)})
	}
	ctx := engine.NewTaskContext(job, "task", nil)
	sc := x.newShuffleCollector(&mapAssignment{place: 0}, ctx)
	for i := 0; i < 64; i++ {
		if err := sc.Collect(types.NewText(fmt.Sprintf("word%04d", i)), types.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	// What flush does for a combined pair bound for the other place.
	if err := sc.deliver(1, types.NewText("word"), types.NewInt(1), true); err != nil {
		t.Fatal(err)
	}
	if got := encodeBufsOut.Load(); got != bufBase+1 {
		t.Fatalf("encode buffers out %d, want %d: the remote pair checked none out", got, bufBase+1)
	}
	lc.Kill(engine.ErrJobKilled)
	if err := sc.Collect(types.NewText("late"), types.NewInt(1)); !errors.Is(err, engine.ErrJobKilled) {
		t.Fatalf("Collect after the kill = %v, want ErrJobKilled", err)
	}
	// Nor does a flush get past the drain of the first combine table.
	if err := sc.flush(); !errors.Is(err, engine.ErrJobKilled) || len(x.parts[0].runs)+len(x.parts[1].runs) != 0 {
		t.Fatalf("flush after the kill = %v with %d runs installed, want ErrJobKilled and none", err, len(x.parts[0].runs)+len(x.parts[1].runs))
	}
	sc.abort()
	if got := encodeBufsOut.Load(); got != bufBase {
		t.Errorf("encode buffers out %d, baseline %d: leaked pooled buffers", got, bufBase)
	}
	if sc.tables != nil || sc.combineBufs != nil || sc.parts != nil || sc.bufs != nil {
		t.Errorf("abort left buffers set: tables %v, combineBufs %v, parts %v, bufs %v",
			sc.tables != nil, sc.combineBufs != nil, sc.parts != nil, sc.bufs != nil)
	}
}

// --- white-box lifecycle: admission, spill, release ---

// newSpillExec builds a minimal one-place jobExec with nparts partitions
// for exercising the partitionInput lifecycle without a cluster.
func newSpillExec(budget int64, codec spill.Codec, nparts int) *jobExec {
	e := &Engine{host: &engine.Host{Stats: sim.NewStats()}, cost: sim.Zero()}
	x := &jobExec{e: e, Job: &engine.Job{ID: "job_test_0001", Counters: counters.New(), Codec: codec}, shuffleBudget: budget}
	if budget > 0 {
		x.budgets = []*engine.JobBudget{engine.NewBudgetPool(budget).Job(x.ID, 0)}
		x.resident = []*engine.ResidentIndex[residentRun]{engine.NewResidentIndex[residentRun]()}
	}
	for q := 0; q < nparts; q++ {
		x.parts = append(x.parts, &partitionInput{x: x, place: 0})
	}
	return x
}

// installRun installs source task src's sorted run for partition q through
// the production flush path.
func installRun(t *testing.T, x *jobExec, ctx *engine.TaskContext, q, src int, pairs []wio.Pair) {
	t.Helper()
	if err := tryInstallRun(x, ctx, q, src, pairs); err != nil {
		t.Fatal(err)
	}
}

func tryInstallRun(x *jobExec, ctx *engine.TaskContext, q, src int, pairs []wio.Pair) error {
	runs := make([][]wio.Pair, len(x.parts))
	runs[q] = pairs
	return flushRuns(x, ctx, src, runs)
}

// flushRuns delivers source task src's sorted runs, indexed by partition, as
// a flush toward place 0 does: on an unbudgeted exec the pairs are installed
// as they are; on a budgeted one they are collected into a buffer, which
// arrives — laid out, sorted, cut into segments, admitted.
func flushRuns(x *jobExec, ctx *engine.TaskContext, src int, runs [][]wio.Pair) error {
	if x.budgets == nil {
		parts := make([]collectPart, len(runs))
		for q, pairs := range runs {
			parts[q].run.pairs = pairs
		}
		x.installRuns(src, parts)
		return nil
	}
	b := getBuffer()
	defer putBuffer(b)
	var c runClasses
	rj := &engine.ResolvedJob{SortCmp: wio.NaturalOrder{}}
	for q, pairs := range runs {
		for _, p := range pairs {
			if err := c.check(p.Key, p.Value); err != nil {
				return err
			}
			if _, err := b.Collect(q, p.Key, p.Value, false); err != nil {
				return err
			}
		}
	}
	if c.KeyType != nil {
		var err error
		if c.rawCmp, err = rj.RawKeyComparator(c.KeyClass); err != nil {
			return err
		}
	}
	b.LayOut(len(runs))
	return x.arriveFrame(ctx, src, b, c)
}

// groupedSize is what pairs, one sorted run, reserve when they are admitted:
// their grouped length.
func groupedSize(t *testing.T, pairs []wio.Pair) int64 {
	t.Helper()
	recs, _, _, _, err := spill.MarshalRun(pairs)
	if err != nil {
		t.Fatal(err)
	}
	return spill.GroupedLen(recs)
}

// textRun builds a sorted run of (prefix###, i) pairs.
func textRun(prefix string, n int) []wio.Pair {
	out := make([]wio.Pair, n)
	for i := range out {
		out[i] = wio.Pair{Key: types.NewText(fmt.Sprintf("%s%04d", prefix, i)), Value: types.NewInt(int32(i))}
	}
	return out
}

// drainMerge merges partition q's runs and returns the marshaled
// (key,value) stream.
func drainMerge(t *testing.T, x *jobExec, ctx *engine.TaskContext, q int) []string {
	t.Helper()
	var out []string
	if x.budgets != nil {
		srcs, keyClass, _, nrecs, err := x.parts[q].takeSources(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(srcs) == 0 {
			return nil
		}
		rj := &engine.ResolvedJob{SortCmp: wio.NaturalOrder{}, GroupCmp: wio.NaturalOrder{}}
		m, err := rj.OpenRawMerge(srcs, keyClass, nrecs, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for {
			r, ok, err := m.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			out = append(out, string(r.K)+"\x00"+string(r.V))
		}
	}
	x.merges.LayOut(len(x.parts), 4, wio.NaturalOrder{}, nil) // as jobExec.layOutMerges does at the barrier
	m, _, _, err := x.parts[q].openMerge()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
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

// assertSameStream compares two marshaled pair streams.
func assertSameStream(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs vs %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d differs", what, i)
		}
	}
}

// TestBudgetReleaseAndReadmission walks the lifecycle deterministically: a
// resident run fills the budget, later runs spill, and draining the first
// partition releases its bytes (BUDGET_RELEASED_BYTES) while it is still
// the reduce phase. The second partition's spilled run stays on disk — it
// stream-decodes into a merge byte-identical to the unbudgeted one — and
// the freed budget stays free.
func TestBudgetReleaseAndReadmission(t *testing.T) {
	runA, runB, runC := textRun("a", 40), textRun("b", 40), textRun("c", 40)
	size := groupedSize(t, runA)

	// Reference: what partition 1's merge must yield, from an unbudgeted run.
	ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
	ref := newSpillExec(0, spill.CodecNone, 1)
	installRun(t, ref, ctx, 0, 0, textRun("c", 40))
	want := drainMerge(t, ref, ctx, 0)

	x := newSpillExec(size, spill.CodecNone, 2) // budget = exactly one run
	defer x.cleanup()
	installRun(t, x, ctx, 0, 0, runA) // resident, fills budget
	installRun(t, x, ctx, 0, 1, runB) // overflows: spills
	installRun(t, x, ctx, 1, 0, runC) // overflows: spills
	if got := ctx.Cells.SpilledRuns.Value(); got != 2 {
		t.Fatalf("SpilledRuns=%d want 2", got)
	}
	if got := x.budgets[0].Held(); got != size {
		t.Fatalf("held=%d want %d after collect", got, size)
	}

	// Partition 0 reduces: B stream-decodes; draining the merge releases
	// A's reservation.
	streamBase := spill.OpenStreamCount()
	if got := len(drainMerge(t, x, ctx, 0)); got != 80 {
		t.Fatalf("partition 0 merged %d pairs, want 80", got)
	}
	if got := x.budgets[0].Held(); got != 0 {
		t.Fatalf("held=%d want 0 after partition 0 drained", got)
	}
	if got := ctx.Cells.BudgetReleasedBytes.Value(); got != size {
		t.Fatalf("BudgetReleasedBytes=%d want %d", got, size)
	}

	// Partition 1 opens with the budget free: C still merges off disk,
	// byte-identically, reserving nothing.
	assertSameStream(t, "spilled partition", drainMerge(t, x, ctx, 1), want)
	if held := x.budgets[0].Held(); held != 0 {
		t.Fatalf("held=%d want 0: a spilled run must not reserve at merge open", held)
	}
	if rel := ctx.Cells.BudgetReleasedBytes.Value(); rel != size {
		t.Fatalf("BudgetReleasedBytes=%d want %d", rel, size)
	}
	if got := spill.OpenStreamCount(); got != streamBase {
		t.Fatalf("OpenStreamCount=%d want %d after both merges closed", got, streamBase)
	}
}

// FuzzBudgetedShuffle feeds fuzzer-shaped runs through the budgeted shuffle at a
// fuzzer-chosen budget and spill codec, and pins the invariants admission,
// eviction and spill promise at every setting: the merged stream is
// byte-identical to the unbudgeted in-memory path, the resident segments are
// never more bytes than the pool holds for them, no spill stream stays open,
// and the accountant returns to zero once the merge drains.
func FuzzBudgetedShuffle(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3), uint8(64), false)
	f.Add([]byte("aaaa bbbb aaaa cccc"), uint8(5), uint8(4), true)
	f.Add([]byte(""), uint8(1), uint8(0), false)
	f.Add([]byte("pad pad pad compress me compress me"), uint8(2), uint8(16), true)
	f.Fuzz(func(t *testing.T, data []byte, nruns, budgetScale uint8, flate bool) {
		runs := int(nruns%6) + 1
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

		drive := func(budget int64, codec spill.Codec) []string {
			x := newSpillExec(budget, codec, 1)
			defer x.cleanup()
			ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
			for src, pairs := range mkRuns() {
				installRun(t, x, ctx, 0, src, pairs)
			}
			if x.budgets != nil {
				// The shuffle barrier's check: what is resident is reserved.
				if err := x.checkResidentBytes(0); err != nil {
					t.Fatal(err)
				}
			}
			out := drainMerge(t, x, ctx, 0)
			if x.budgets != nil {
				if held := x.budgets[0].Held(); held != 0 {
					t.Fatalf("held=%d after full drain", held)
				}
			}
			return out
		}

		streamBase := spill.OpenStreamCount()
		want := drive(0, spill.CodecNone) // unbudgeted in-memory reference
		got := drive(budget, codec)
		assertSameStream(t, fmt.Sprintf("budget=%d codec=%s", budget, codec), got, want)
		if n := spill.OpenStreamCount(); n != streamBase {
			t.Fatalf("OpenStreamCount=%d baseline %d", n, streamBase)
		}
	})
}

// TestCompressedSpillChargesStoredBytesAndReadmitsRawSize pins the codec's
// accounting contract end to end: with flate configured, SPILLED_BYTES
// counts the stored (compressed) bytes and SPILLED_RAW_BYTES the raw
// grouped bytes (so stored < raw on repetitive runs, where codec none
// stores raw plus its framing); the budget, however, keeps accounting in
// the runs' grouped in-memory sizes whatever the codec; and the merge
// output stays byte-identical to the raw-codec lifecycle.
func TestCompressedSpillChargesStoredBytesAndReadmitsRawSize(t *testing.T) {
	size := groupedSize(t, textRun("aaaa", 40))

	drive := func(codec spill.Codec) ([]string, *engine.TaskContext, *jobExec) {
		x := newSpillExec(size, codec, 2) // budget = exactly one run
		ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
		installRun(t, x, ctx, 0, 0, textRun("aaaa", 40)) // resident
		installRun(t, x, ctx, 1, 0, textRun("cccc", 40)) // spills
		if held := x.budgets[0].Held(); held != size {
			t.Fatalf("codec %s: resident run holds %d budget bytes, want raw size %d", codec, held, size)
		}
		out := drainMerge(t, x, ctx, 0) // releases A's reservation
		out = append(out, drainMerge(t, x, ctx, 1)...)
		return out, ctx, x
	}

	want, refCtx, refX := drive(spill.CodecNone)
	defer refX.cleanup()
	got, ctx, x := drive(spill.CodecFlate)
	defer x.cleanup()

	assertSameStream(t, "flate vs raw lifecycle", got, want)
	stored, raw := ctx.Cells.SpilledBytes.Value(), ctx.Cells.SpilledRawBytes.Value()
	if raw == 0 || stored == 0 {
		t.Fatalf("spill accounting silent: stored=%d raw=%d", stored, raw)
	}
	if stored >= raw {
		t.Fatalf("flate spill stored %d bytes >= raw %d on repetitive keys", stored, raw)
	}
	// Codec none charges the record bytes plus exactly the framing of its
	// one run's one block: the segment header, the block's codec byte and
	// its raw and stored lengths.
	refStored, refRaw := refCtx.Cells.SpilledBytes.Value(), refCtx.Cells.SpilledRawBytes.Value()
	if want := refRaw + 6 + 1 + 2*int64(len(binary.AppendUvarint(nil, uint64(refRaw)))); refCtx.Cells.SpilledRuns.Value() != 1 || refStored != want {
		t.Fatalf("codec none: %d runs stored %d bytes for %d raw, want one run of %d", refCtx.Cells.SpilledRuns.Value(), refStored, refRaw, want)
	}
	// The engine's stats follow these cells through the task envelope
	// (integration's TestCountedOnce holds spill.bytes to SPILLED_BYTES).
}

// TestRefusedArrivalIsNeverResident: a run the pool refuses at arrival goes
// to disk straight from its frame's sorted views — no resident segment is
// laid out for it first. With the spill write stubbed out, per codec, a
// refused arrival allocates no more times than the ceiling below, which a
// resident segment would pass by one, and fewer bytes than the spilled
// segment and half the run's raw segment, where a resident copy would cost
// the whole raw segment.
func TestRefusedArrivalIsNeverResident(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	t.Setenv("TMPDIR", t.TempDir())
	var spilled int64
	swapSpillWrite(t, func(_ string, enc spill.EncodedRun) (int64, error) {
		spilled = int64(len(enc.Data))
		return spilled, nil
	})
	pairs := textRun("refused", 2000)
	recs, _, _, _, err := spill.MarshalRun(pairs)
	if err != nil {
		t.Fatal(err)
	}
	var raw uint64
	for _, r := range recs {
		raw += uint64(r.EncodedLen())
	}
	// Text's raw comparator, as a WordCount job's runs are sorted under.
	rj := &engine.ResolvedJob{SortCmp: wio.NaturalOrder{}, RawSortCmp: types.TextRawComparator{}}
	var c runClasses
	b := getBuffer()
	defer putBuffer(b)
	for _, p := range pairs {
		if err := c.check(p.Key, p.Value); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Collect(0, p.Key, p.Value, false); err != nil {
			t.Fatal(err)
		}
	}
	c.rawCmp = rj.RawSortCmp
	var frame [][]byte
	if _, _, _, err := b.Ship(1, func(f []byte) ([]byte, error) {
		frame = append(frame, bytes.Clone(f))
		return f, nil
	}); err != nil {
		t.Fatal(err)
	}
	// A collection empties the encoder pools, and a rebuilt flate.Writer
	// would outweigh the run: no collection, and one P, while measuring.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		codec  spill.Codec
		allocs float64
	}{
		// Measured on go1.24 linux/amd64: the reservation's eviction
		// callback, the run's two structs, the encoded segment and its
		// path. Decoding into a pooled buffer allocates nothing.
		{spill.CodecNone, 5},
		{spill.CodecFlate, 5},
	} {
		x := newSpillExec(1, tc.codec, 1) // a pool of one byte refuses every run
		ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
		arrive := func() {
			if err := b.Decode(frame, 1); err != nil {
				t.Fatal(err)
			}
			if err := x.arriveFrame(ctx, 0, b, c); err != nil {
				t.Fatal(err)
			}
			pi := x.parts[0]
			if len(pi.runs) != 1 || pi.runs[0].spillPath == "" || pi.runs[0].seg != nil {
				t.Fatalf("%s: the run was not refused", tc.codec)
			}
			pi.runs = pi.runs[:0]
		}
		const runs = 20
		allocs := testing.AllocsPerRun(runs, arrive)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			arrive()
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		if allocs > tc.allocs {
			t.Errorf("%s: a refused arrival allocates %v times, ceiling %v", tc.codec, allocs, tc.allocs)
		}
		if limit := uint64(spilled) + raw/2; perRun >= limit {
			t.Errorf("%s: a refused arrival allocates %d bytes, want under %d (the %d-byte spill and half the %d-byte raw run)",
				tc.codec, perRun, limit, spilled, raw)
		}
		x.cleanup()
	}
}
