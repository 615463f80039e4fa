package m3r

import (
	"fmt"
	"slices"
	"sync"

	"m3r/internal/engine"
	"m3r/internal/spill"
	"m3r/internal/wio"
)

// partitionInput accumulates one reduce partition's shuffled input as
// sorted runs, one per source map task. Map tasks sort their runs map-side
// (inside the already-parallel map phase, see shuffleCollector.flush), so
// the reduce task only k-way merges them — the run-based shuffle-and-sort
// pipeline that keeps the O(n log n) sort off the reduce critical path.
// Under a shuffle memory budget the runs are serialized: resident as
// segments in the shared spill record format, or, when they do not fit their
// place's accountant, on disk in the same format; both enter the same merge
// as raw records (takeSources).
type partitionInput struct {
	x     *jobExec
	index int
	place int
	mu    sync.Mutex
	runs  []*sourceRun
}

// Run is the partition's reduce task, at its place: the work the reduce
// phase's x10.Finish spawns for it.
func (pi *partitionInput) Run() error {
	x := pi.x
	var err error
	x.e.rt.At(pi.place, func() {
		err = x.RunTask(engine.ReduceTask, pi.index, 0, pi.place, nil, func(ctx *engine.TaskContext) error {
			return x.runReduceTask(ctx, pi.index)
		})
	})
	return err
}

// sourceRun is one map task's sorted contribution to a partition: pairs,
// objects on the heap, on an unbudgeted job; a serializedRun on a budgeted
// one. Runs are heap-allocated and shared with the place's resident index so
// the largest-first policy can flip a cold resident run to spilled in place
// (under pi.mu) without disturbing its slot — and with it the src-order
// merge tie-break.
type sourceRun struct {
	src   int
	pairs []wio.Pair
	*serializedRun
}

// serializedRun is a budgeted job's run, bytes from collect to reducer:
// exactly one of seg, the run resident in the grouped layout, and
// spillPath, the run in a grouped spill file, with the key/value class
// names the reduce decodes them as beside it (in memory, not on disk). size
// is what a resident run holds reserved, its grouped length; it goes back to
// the place's budget pool when the reduce merge drains the run. It is a
// separate allocation so that an unbudgeted job's runs stay the three words
// they were.
type serializedRun struct {
	seg                []byte
	spillPath          string
	keyClass, valClass string
	nrecs              int
	size               int64
}

// admit is a budgeted run's one admission path: recs, the sorted run map
// task src shipped to this partition, still views of its arrived frame. The
// place's pool decides before a byte is copied, on the run's grouped size:
// the bytes it will be resident in, each key once. Under contention the
// largest-first policy may re-spill a larger cold resident run of this job
// to keep the newcomer in memory; an admitted run is laid out grouped and
// offered to that policy in turn. A run the pool cannot admit is never
// resident: it goes to disk straight from the views, inline on the flushing
// map task.
func (pi *partitionInput) admit(ctx *engine.TaskContext, src int, recs []spill.Rec, c runClasses) error {
	x := pi.x
	size := spill.GroupedLen(recs)
	admitted, contended, err := x.budgets[pi.place].ReserveEvicting(size, func(min int64) (int64, error) {
		return x.evictLargest(ctx, pi.place, min)
	})
	if err != nil {
		return err
	}
	if contended {
		ctx.Cells.PoolContendedBytes.Increment(size)
	}
	r := &sourceRun{src: src, serializedRun: &serializedRun{
		nrecs: len(recs), keyClass: c.KeyClass, valClass: c.ValClass,
	}}
	if !admitted {
		span := ctx.Begin(engine.PhaseSpill, pi.place)
		r.spillPath, err = x.spillRecs(ctx, recs)
		span.End()
		if err != nil {
			return err
		}
		pi.install(r)
		return nil
	}
	r.seg, r.size = spill.AppendGrouped(make([]byte, 0, size), recs), size
	pi.install(r)
	x.resident[pi.place].Add(residentRun{r, pi}, size, int64(src))
	return nil
}

// checkResidentBytes is the accounting's invariant, checked once per place
// at the shuffle barrier, when every admission is over and no reducer has
// released anything yet: the runs resident at place are no more bytes than
// the job holds reserved there. A run is reserved at exactly its grouped
// bytes, so a violation is a run resident without its reservation — the pool
// over-committing in silence.
func (x *jobExec) checkResidentBytes(place int) error {
	var resident int64
	for _, pi := range x.parts {
		if pi.place != place {
			continue
		}
		pi.mu.Lock()
		for _, r := range pi.runs {
			resident += int64(len(r.seg))
		}
		pi.mu.Unlock()
	}
	if held := x.budgets[place].Held(); resident > held {
		return fmt.Errorf("m3r: place %d holds %d bytes of resident segments against %d reserved", place, resident, held)
	}
	return nil
}

// chargeSpill charges one encoded run's spill — an overflow or a
// largest-first eviction — to the task's counters and the cost model.
// SPILLED_BYTES (and the disk cost) is the stored length — compressed when a
// codec is configured — while SPILLED_RAW_BYTES is the raw record-format
// length, so the ratio between the two is the job's observable spill
// compression.
func (x *jobExec) chargeSpill(ctx *engine.TaskContext, enc spill.EncodedRun, nrecs int) {
	stored := int64(len(enc.Data))
	ctx.Cells.SpilledRuns.Increment(1)
	ctx.Cells.SpilledBytes.Increment(stored)
	ctx.Cells.SpilledRawBytes.Increment(enc.Raw)
	ctx.Cells.SpilledRecords.Increment(int64(nrecs))
	x.e.cost.ChargeDisk(x.e.Stats(), stored)
}

// installRuns installs an unbudgeted map task's sorted run per partition,
// each in its part's storage.
func (x *jobExec) installRuns(src int, parts []collectPart) {
	for q := range parts {
		if r := &parts[q].run; len(r.pairs) > 0 {
			r.src = src
			x.parts[q].install(r)
		}
	}
}

func (pi *partitionInput) install(r *sourceRun) {
	pi.mu.Lock()
	pi.runs = append(pi.runs, r)
	pi.mu.Unlock()
}

// takeRuns detaches the partition's runs, ordered by source task. Source
// order is the merge's stability tie-break: equal keys surface in map-task
// order, exactly as a concatenate-then-stable-sort of the runs would produce
// them, whether a run stayed resident or spilled.
func (pi *partitionInput) takeRuns() []*sourceRun {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	runs := pi.runs
	pi.runs = nil
	slices.SortStableFunc(runs, func(a, b *sourceRun) int { return a.src - b.src })
	return runs
}

// openMerge opens an unbudgeted job's merge of the partition's runs, read
// where they lie, in the partition's room of the job's merges, and returns
// it, what the reducer reads of it (engine.PairMerges.Open) and the number
// of pairs they hold.
func (pi *partitionInput) openMerge() (*engine.MergeIter, engine.PairIter, int, error) {
	runs := pi.takeRuns()
	nrecs := 0
	for _, r := range runs {
		nrecs += len(r.pairs)
	}
	m, in, err := pi.x.merges.Open(pi.index, len(runs), func(j int) []wio.Pair { return runs[j].pairs })
	return m, in, nrecs, err
}

// takeSources returns a budgeted job's merge leaves — a resident run's
// records or a spill file's stream, bytes either way — with the key and
// value class they decode as and the number of records they hold. A
// resident run's leaf (segmentSource) hands its reservation back to the
// place's accountant as the merge exhausts (or abandons) the run, so a long
// reduce phase frees memory while it is still running.
func (pi *partitionInput) takeSources(ctx *engine.TaskContext) (srcs []engine.RecSource, keyClass, valClass string, nrecs int, err error) {
	acct, released := pi.x.budgets[pi.place], &ctx.Cells.BudgetReleasedBytes
	for _, r := range pi.takeRuns() {
		if keyClass == "" {
			keyClass, valClass = r.keyClass, r.valClass
		}
		var src engine.RecSource
		switch {
		case r.keyClass != keyClass || r.valClass != valClass:
			err = fmt.Errorf("m3r: map tasks shipped runs of classes %s/%s and %s/%s to one partition",
				keyClass, valClass, r.keyClass, r.valClass)
		case r.spillPath != "":
			src, err = spill.OpenFile(r.spillPath)
		default:
			size := r.size
			leaf := &segmentSource{release: func() {
				acct.Release(size)
				released.Increment(size)
			}}
			leaf.c.Reset(r.seg)
			src = leaf
		}
		if err != nil {
			engine.CloseAllOnErr(srcs)
			return nil, "", "", 0, err
		}
		srcs = append(srcs, src)
		nrecs += r.nrecs
	}
	return srcs, keyClass, valClass, nrecs, nil
}
