package m3r

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/mapred"
	"m3r/internal/spill"
	"m3r/internal/wio"
)

// shuffleCollector receives one map task's output and routes it to reduce
// partitions, implementing the paper's shuffle cost structure (§3.2.2):
//
//   - pairs for partitions co-located at this place are delivered without
//     serialization — aliased when the map side declared ImmutableOutput,
//     deep-cloned otherwise (§3.2.2.1, §4.1);
//   - pairs for remote places are serialized immediately into a
//     per-destination spill.Buffer, de-duplicating by identity, so a
//     broadcast value crosses the wire once per place (§3.2.2.3), and
//     become objects again where they arrive;
//   - with a combiner configured, pairs are held per partition and combined
//     before delivery: grouped by key as they arrive and folded through the
//     combiner as a key fills up (engine.CombineTable) when the job's keys
//     may be grouped by hash, buffered until flush and sorted otherwise.
//
// That is the unbudgeted job, the paper's design point. Under a shuffle
// budget a run must be sized, may be evicted and is decoded at the merge
// anyway, so every pair — co-located ones included — is serialized once, at
// collect, into its place's spill.Buffer, and stays bytes until the reducer.
//
// At flush, every per-partition batch is sorted map-side before it is
// installed as a run in the partition's input: map tasks already run in
// parallel, so the sort rides the map phase's parallelism and the reduce
// task only has to k-way merge the runs (see engine.MergeIter).
type shuffleCollector struct {
	x     *jobExec
	ctx   *engine.TaskContext
	place int
	src   int // map task index, for deterministic reduce input order
	R, P  int

	partitioner mapred.Partitioner
	immutable   bool

	// Where delivered pairs collect until flush: bufs, by destination
	// place — on an unbudgeted job the remote ones only, and parts, by
	// partition, the co-located pairs; on a budgeted job every place's
	// (frame.go). Not maps, so flush installs and ships in ascending order
	// and a task's admission and eviction sequence is the same on every
	// execution. classes are what the buffers' bytes decode as.
	parts    []collectPart
	bufs     []*spill.Buffer
	classes  runClasses
	budgeted bool
	// arena backs an unbudgeted task's small runs: the job's.
	arena *pairArena

	// Combiner path: one of the two, indexed by partition. tables, with
	// hashPartition set when the partitioner is the stock one and the hash a
	// table needs is also the partition; combineBufs for a job whose keys
	// cannot be grouped by hash (ResolvedJob.CombineByHash).
	tables        []*engine.CombineTable
	hashPartition bool
	combineBufs   [][]wio.Pair
}

// collectPart is an unbudgeted map task's state for one reduce partition.
type collectPart struct {
	// run is the sorted run the task installs in the partition, as the
	// partition holds it (installRuns): its pairs are the co-located pairs
	// as collected, or a remote partition's as decoded at its place.
	run sourceRun
	// remote is the number of pairs serialized for a remote partition, so
	// the receiving side makes room for its decoded run once, at its length.
	remote int
}

// encodeBufsOut counts the buffers a task has checked out of the pools
// (getBuffer, getObjectBuffer) — its outbound ones and its sink's run — and
// not yet returned. Every exit path of a task — commit, error, abort,
// panic — must bring it back to baseline, which the fault-injection tests
// pin (a leak here quietly bleeds grown buffers out of the pools on every
// failed job).
var encodeBufsOut atomic.Int64

// newShuffleCollector makes a's collector, in a, over a's row of the job's
// arrays (jobExec.layOutCollectors): its per-partition and per-place state.
func (x *jobExec) newShuffleCollector(a *mapAssignment, ctx *engine.TaskContext) *shuffleCollector {
	R, P := x.Resolved.NumReducers, x.e.rt.NumPlaces()
	i := a.index
	sc := &a.sc
	*sc = shuffleCollector{
		x:           x,
		ctx:         ctx,
		place:       a.place,
		src:         i,
		R:           R,
		P:           P,
		partitioner: x.Resolved.NewPartitioner(),
		immutable:   engine.MapTaskImmutable(x.Resolved, a.split),
		bufs:        x.collectBufs[i*P : (i+1)*P : (i+1)*P],
		classes:     x.classes,
		budgeted:    x.budgets != nil,
	}
	if !sc.budgeted {
		sc.parts = x.collectParts[i*R : (i+1)*R : (i+1)*R]
		sc.arena = &x.arena
	}
	switch {
	case x.Resolved.CombineByHash:
		sc.tables = x.collectTables[i*R : (i+1)*R : (i+1)*R]
		_, sc.hashPartition = sc.partitioner.(*mapred.HashPartitioner)
	case x.Resolved.HasCombiner:
		sc.combineBufs = make([][]wio.Pair, R)
	}
	return sc
}

// Collect implements the collector contract.
func (sc *shuffleCollector) Collect(key, value wio.Writable) error {
	// The map phase's per-record cancel check: one atomic load. The error
	// unwinds through the mapper into runMapTask's abort path, so the
	// collector's pooled buffers return on kill exactly as on any failure.
	if err := sc.x.Lifecycle.Err(); err != nil {
		return err
	}
	// A pair not of the declared classes fails here on either budget, as it
	// does in the Hadoop engine's collect, before anything sorts or reduces
	// it as one of them.
	if err := sc.x.Resolved.MapOutput.Check(key, value); err != nil {
		return err
	}
	if sc.tables != nil {
		return sc.collectGrouped(key, value)
	}
	q := sc.partitioner.GetPartition(key, value, sc.R)
	if q < 0 || q >= sc.R {
		return fmt.Errorf("m3r: partitioner returned %d of %d", q, sc.R)
	}
	sc.ctx.Cells.MapOutputRecords.Increment(1)
	if sc.combineBufs != nil {
		// Buffer for the combiner; the mapper may reuse its objects, so
		// unmarked map sides pay a clone here.
		k, v := key, value
		if !sc.immutable {
			k, v = sc.clone(key, value)
			sc.ctx.Cells.ClonedPairs.Increment(1)
		} else {
			sc.ctx.Cells.AliasedPairs.Increment(1)
		}
		sc.combineBufs[q] = append(sc.combineBufs[q], wio.Pair{Key: k, Value: v})
		return nil
	}
	return sc.deliver(q, key, value, sc.immutable)
}

// collectGrouped puts one pair into its partition's combine table. The key
// is hashed once, for the table and — under the stock partitioner, which is
// that hash modulo R — for the partition. The mapper may reuse its objects,
// so an unmarked map side pays a clone of the value here, and of the key
// when the table has not seen it before.
func (sc *shuffleCollector) collectGrouped(key, value wio.Writable) error {
	h := wio.HashCode(key)
	q := int(h % uint32(sc.R))
	if !sc.hashPartition {
		if q = sc.partitioner.GetPartition(key, value, sc.R); q < 0 || q >= sc.R {
			return fmt.Errorf("m3r: partitioner returned %d of %d", q, sc.R)
		}
	}
	sc.ctx.Cells.MapOutputRecords.Increment(1)
	if sc.immutable {
		sc.ctx.Cells.AliasedPairs.Increment(1)
	} else {
		sc.ctx.Cells.ClonedPairs.Increment(1)
	}
	t := sc.tables[q]
	if t == nil {
		t = engine.NewCombineTable(sc.x.Resolved, sc.ctx, sc.x.Lifecycle)
		sc.tables[q] = t
	}
	return t.Add(h, key, value, !sc.immutable)
}

// clone copies a pair the mapper may reuse (§4.1). The copy is reducer
// input and dies with the job, so it comes from the shared slabs
// (wio.CloneTransient) — unless the reducer may hand it on to the cache
// (ImmutableOutput), which keeps nothing from a shared slab.
func (sc *shuffleCollector) clone(key, value wio.Writable) (wio.Writable, wio.Writable) {
	if sc.x.Resolved.ReduceImmutable {
		return wio.MustClone(key), wio.MustClone(value)
	}
	return wio.MustCloneTransient(key), wio.MustCloneTransient(value)
}

// deliver routes one pair to its partition's place.
func (sc *shuffleCollector) deliver(q int, key, value wio.Writable, immutable bool) error {
	// A pair not of the task's classes fails here, co-located or not, as
	// on every engine and budget.
	if err := sc.classes.check(key, value); err != nil {
		return err
	}
	if sc.budgeted {
		return sc.collectSerialized(q, key, value, immutable)
	}
	d := sc.x.parts[q].place
	if d == sc.place {
		// Co-located: no serialization ever (§3.2.2.1); clone only to
		// protect against output reuse (§4.1).
		k, v := key, value
		if !immutable {
			k, v = sc.clone(key, value)
			sc.ctx.Cells.ClonedPairs.Increment(1)
		} else {
			sc.ctx.Cells.AliasedPairs.Increment(1)
		}
		sc.parts[q].run.pairs = sc.arena.append(sc.parts[q].run.pairs, wio.Pair{Key: k, Value: v})
		sc.ctx.Cells.LocalShufflePairs.Increment(1)
		return nil
	}
	// Remote: serialize now (immediately, like Hadoop's collect — the
	// object may be reused right after we return) into the destination's
	// buffer. De-duplication identifies repeats by object identity, which
	// is only sound when emitted objects are never mutated; on unmarked
	// map sides it is disabled (a reused-and-mutated object must not
	// back-reference its stale bytes). This mirrors real M3R, where
	// unmarked output is copied before the serializer ever sees it.
	b := sc.bufs[d]
	if b == nil {
		b = getObjectBuffer()
		sc.bufs[d] = b
	}
	if _, err := b.Collect(q, key, value, sc.x.dedup && immutable); err != nil {
		return err
	}
	sc.parts[q].remote++
	sc.ctx.Cells.RemoteShufflePairs.Increment(1)
	return nil
}

// flush completes the task's shuffle: run the combiner if configured, sort
// each per-partition batch map-side, ship each remote buffer (decode on the
// destination side yields objects of their own, from slabs, with dedup
// aliases for repeated values) and install the sorted runs into their
// partitions.
func (sc *shuffleCollector) flush() error {
	span := sc.ctx.Begin(engine.PhaseSort, sc.place)
	err := sc.flushCombined()
	if err != nil || sc.budgeted {
		span.End()
		if err != nil {
			return err
		}
		return sc.flushFrames()
	}
	// Local batches become sorted runs here, on the map task's worker —
	// after a combiner pass they arrive already sorted (key-preserving
	// combiners keep Combine's sort order), which SortPairs recognises in
	// one scan of the batch and leaves in place. A remote partition's run
	// is still empty: its pairs are in a buffer.
	sortCmp := sc.x.Resolved.SortCmp
	remote := 0
	for q := range sc.parts {
		engine.SortPairs(sc.parts[q].run.pairs, sortCmp)
		remote += sc.parts[q].remote
	}
	span.End()
	// The decoded remote runs share one backing array, each partition's
	// part exactly its length (capacity-clipped, so a run never grows into
	// its neighbour's).
	backing := sc.arena.make(remote)[:remote]
	for q := range sc.parts {
		if n := sc.parts[q].remote; n > 0 {
			sc.parts[q].run.pairs, backing = backing[:0:n], backing[n:]
		}
	}
	for d, b := range sc.bufs {
		if b == nil {
			continue
		}
		if err := sc.deliverObjects(d, b); err != nil {
			return err
		}
	}
	sc.bufs = nil
	sc.x.installRuns(sc.src, sc.parts)
	sc.parts = nil
	return nil
}

// flushCombined delivers what the combiner leaves of each partition's held
// pairs: a table's drained, a buffer's sorted and combined.
func (sc *shuffleCollector) flushCombined() error {
	for q := 0; q < sc.R; q++ {
		var combined []wio.Pair
		var err error
		switch {
		case sc.tables != nil && sc.tables[q] != nil:
			combined, err = sc.tables[q].Drain()
			sc.tables[q] = nil
		case sc.combineBufs != nil && len(sc.combineBufs[q]) > 0:
			combined, err = engine.Combine(sc.x.Resolved, sc.combineBufs[q], sc.ctx)
			sc.combineBufs[q] = nil
		default:
			continue
		}
		if err != nil {
			return err
		}
		if sc.x.parts[q].place == sc.place && !sc.budgeted {
			// What is delivered below is all this partition gets, and the
			// run it becomes is retained until the reducer drains it:
			// exactly its length.
			sc.parts[q].run.pairs = sc.arena.make(len(combined))
		}
		// The combined pairs are engine-owned (cloned unless the combiner
		// is marked), so they are safe to alias and to de-duplicate.
		for _, p := range combined {
			if err := sc.deliver(q, p.Key, p.Value, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// deliverObjects ships one destination's buffer (shipBuffer) and decodes
// it at the destination into the sorted runs of its partitions there. b
// returns to the pool on every exit path; the chunks the decoded values
// point into do not return with it: they are the destination's from here on,
// alive as long as any of those values is.
func (sc *shuffleCollector) deliverObjects(d int, b *spill.Buffer) error {
	defer func() {
		sc.bufs[d] = nil
		putBuffer(b)
	}()
	ship, err := sc.shipBuffer(d, b)
	if err != nil {
		return err
	}
	span := ship.Then(engine.PhaseArrive, d)
	defer span.End()
	// "Arrive" at place d: exactly the pairs the task counted for each of
	// its partitions and none for another's — a frame that says otherwise
	// is corrupt, not merely odd — decoded into objects of their own, from
	// slabs no larger than the pairs still to come, in collect order.
	total := 0
	for q := range sc.parts {
		want := 0
		if sc.x.parts[q].place == d {
			want = sc.parts[q].remote
		}
		if got := len(b.Partition(q)); got != want {
			return fmt.Errorf("m3r: shuffle decode at place %d: %d pairs of partition %d, %d sent", d, got, q, want)
		}
		total += want
	}
	if err := b.Unpack(sc.classes.KeyClass, sc.classes.ValClass, sc.x.Resolved.ReduceImmutable, func(q int, kv wio.Pair) { sc.parts[q].run.pairs = append(sc.parts[q].run.pairs, kv) }); err != nil {
		return fmt.Errorf("m3r: shuffle decode at place %d: %w", d, err)
	}
	sortCmp := sc.x.Resolved.SortCmp
	for q := range sc.parts {
		if sc.x.parts[q].place == d {
			engine.SortPairs(sc.parts[q].run.pairs, sortCmp)
		}
	}
	return nil
}

// abort releases the collector's resources after a failed task: any
// buffers flush never shipped go back to their pool, and the buffered pairs
// are dropped so they are collectable before the job's cleanup finishes.
func (sc *shuffleCollector) abort() {
	for _, b := range sc.bufs {
		if b != nil {
			putBuffer(b)
		}
	}
	// The task's state is its row of the job's arrays: cleared, so the job
	// holds nothing of a failed task's.
	clear(sc.bufs)
	clear(sc.parts)
	clear(sc.tables)
	sc.bufs = nil
	sc.parts = nil
	sc.tables = nil
	sc.combineBufs = nil
}

// taskSink is where a task that produces the job's output — a reducer, or
// the mapper of a zero-reducer job (§5.3) — sends it: the attempt's file
// under the job's committer and, beside it, the output's cache entry at the
// task's place (§3.2.1). Either may be absent: a temporary output has no
// file (§4.2.3), a job with the cache off no entry. The sink holds both by
// value, in its task's slot of the job's layOutSinks.
type taskSink struct {
	path   string // the part file's
	out    engine.TaskOutput
	cacheW OutputWriter
	cached bool // cacheW is open
	// immutable: the producer keeps its hands off what it emitted (§4.1), so
	// the cache aliases the pair; otherwise it keeps a clone.
	immutable bool
	// run is a cloning sink's output so far, each pair serialized at Collect
	// (the producer may then reuse its objects) and decoded into the cache
	// entry at flush, every object of the run in one kept decode: wio.Clone's
	// two halves, with the count known at the second. A pair of other classes
	// than the run's ends it: what it holds is decoded, and a new run starts.
	run                *spill.Buffer
	keyType, valType   engine.TypeWord
	keyClass, valClass string
	// records counts what Collect takes; lc, when set, is checked for a
	// kill before each record.
	records *counters.Counter
	lc      *engine.JobLifecycle
	// ctx and place are the task's: its counters and its commit's span.
	ctx   *engine.TaskContext
	place int
}

// layOutSinks lays out the sinks of the job's n output tasks, each with its
// part file's path, the paths cut from one chunk.
func (x *jobExec) layOutSinks(n int) {
	outPath := x.Conf.OutputPath()
	x.sinks = make([]taskSink, n)
	var paths engine.Strings
	paths.Grow(n * (len(outPath) + len("/part-00000")))
	for i := range x.sinks {
		x.sinks[i].path = partPath(outPath, i, &paths)
	}
}

// openTaskSink opens the output of the task ctx describes, in its slot of
// the job's layOutSinks: file part-<index> of the job's output, cached at
// place.
func (x *jobExec) openTaskSink(ctx *engine.TaskContext, place, index int, immutable bool) (*taskSink, error) {
	s := &x.sinks[index]
	*s = taskSink{path: s.path, immutable: immutable, ctx: ctx, place: place}
	if err := x.InitTaskOutput(&s.out, ctx.Job, ctx.TaskID, dfs.Base(s.path)); err != nil {
		return nil, err
	}
	if x.Conf.OutputPath() != "" && x.cacheEnabled {
		if err := x.e.cache.openOutput(&s.cacheW, place, s.path, x.temp); err != nil {
			s.out.Abort()
			return nil, err
		}
		s.cached = true
	}
	if x.temp {
		// Temporary output: bytes never reach the filesystem (§4.2.3).
		ctx.IncrCounter(counters.M3RGroup, counters.TempOutputsElided, 1)
	}
	return s, nil
}

// partPath is the path of part file index (part-<index, five digits>) under
// the output directory outPath, cut from paths.
func partPath(outPath string, index int, paths *engine.Strings) string {
	var buf [128]byte
	b := append(append(buf[:0], outPath...), "/part-"...)
	for w := 10000; w > 1 && index < w; w /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(index), 10)
	return dfs.CleanPath(paths.Cut(b))
}

// sinkExpectMax bounds what expect reserves: a task that writes fewer pairs
// than it expected leaves at most that many unused in its cache entry.
const sinkExpectMax = 16

// expect tells the sink that the task has n records to make its output of,
// so that an aliasing sink's cache entry starts with room for that many
// pairs, up to sinkExpectMax, rather than growing from one. A cloning sink
// knows its count exactly when it decodes its run.
func (s *taskSink) expect(n int) {
	if s.cached && s.immutable {
		s.cacheW.Grow(min(n, sinkExpectMax))
	}
}

// Collect implements the collector contract for the task's output.
func (s *taskSink) Collect(key, value wio.Writable) error {
	if err := s.lc.Err(); err != nil {
		return err
	}
	s.records.Increment(1)
	return s.write(key, value)
}

func (s *taskSink) write(key, value wio.Writable) error {
	switch {
	case !s.cached:
	case s.immutable:
		s.ctx.Cells.AliasedPairs.Increment(1)
		s.cacheW.Append(wio.Pair{Key: key, Value: value})
	default:
		if err := s.serialize(key, value); err != nil {
			return err
		}
		s.ctx.Cells.ClonedPairs.Increment(1)
	}
	return s.out.Write(key, value)
}

// serialize writes a pair to be cloned into the run, every field of it,
// ending the run first if the pair's classes are not the run's.
func (s *taskSink) serialize(key, value wio.Writable) error {
	if kt, vt := engine.TypeOf(key), engine.TypeOf(value); kt != s.keyType || vt != s.valType {
		if err := s.decodeRun(); err != nil {
			return err
		}
		kc, err := wio.NameOf(key)
		if err != nil {
			return err
		}
		vc, err := wio.NameOf(value)
		if err != nil {
			return err
		}
		s.keyType, s.valType, s.keyClass, s.valClass = kt, vt, kc, vc
	}
	if s.run == nil {
		s.run = getObjectBuffer()
	}
	_, err := s.run.Collect(0, key, value, false)
	return err
}

// decodeRun appends the run's pairs to the cache entry as fresh objects, the
// entry grown by their exact count, and empties the run.
func (s *taskSink) decodeRun() error {
	if s.run == nil {
		return nil
	}
	s.run.LayOut(1)
	recs := s.run.Partition(0)
	d, err := s.run.KeptDecoder(s.keyClass, s.valClass)
	if err != nil {
		return err
	}
	s.cacheW.Grow(len(recs))
	for _, rec := range recs {
		kv, err := d.Decode(rec)
		if err != nil {
			return err
		}
		s.cacheW.Append(kv)
	}
	s.run.Reset()
	return nil
}

// flush publishes the task's output: the cloned run into the cache entry,
// then the file, then the entry.
func (s *taskSink) flush() error {
	span := s.ctx.Begin(engine.PhaseCommit, s.place)
	defer span.End()
	if s.cached {
		err := s.decodeRun()
		s.releaseRun()
		if err != nil {
			return err
		}
	}
	if err := s.out.Commit(); err != nil {
		return err
	}
	if s.cached {
		if err := s.cacheW.Close(); err != nil {
			return err
		}
		s.cached = false
	}
	return nil
}

// abort discards a failed task's partial output: the attempt's uncommitted
// work directory and the partial cache entry, which later jobs would read as
// a cache hit on a truncated file. After flush it does nothing, so tasks
// defer it.
func (s *taskSink) abort() {
	s.out.Abort()
	s.releaseRun()
	if s.cached {
		s.cached = false
		s.cacheW.Abort()
	}
}

// releaseRun pools the run's buffer.
func (s *taskSink) releaseRun() {
	if s.run != nil {
		putBuffer(s.run)
		s.run = nil
	}
}
