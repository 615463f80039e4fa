package m3r

import (
	"fmt"
	"strings"
	"sync"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/mapred"
	"m3r/internal/sim"
	"m3r/internal/wio"
)

// runMapTask is the body of one map task at its assigned place
// (engine.Job.RunTask is its envelope).
func (x *jobExec) runMapTask(ctx *engine.TaskContext, a *mapAssignment) error {
	// Place-aware output plumbing (MultipleOutputs side files through the
	// cache) homes blocks at the writing task's place.
	ctx.Job.SetInt(conf.KeyM3RTaskPlace, a.place)

	mr := x.Resolved.TaskMapRun(ctx)
	mr.Configure(ctx.Job)

	// On a zero-reducer job the map output is the job's output (§5.3);
	// otherwise it is the shuffle's.
	var out mapOutput
	if x.Resolved.MapOnly {
		sink, err := x.openTaskSink(ctx, a.place, a.index, engine.MapTaskImmutable(x.Resolved, a.split), x.planned(a))
		if err != nil {
			return err
		}
		// The map phase's per-record cancel check is the sink's.
		sink.records, sink.lc = &ctx.Cells.MapOutputRecords, x.Lifecycle
		out = sink
	} else {
		out = x.newShuffleCollector(a, ctx)
	}
	// The abort runs on every failure exit — error return or panic (the
	// envelope's recover sees it after this defer) — so a failed task never
	// leaves partial output in the cache or pooled buffers adrift.
	done := false
	defer func() {
		if !done {
			out.abort()
		}
	}()

	if err := x.feedMapTask(a, mr, out, ctx); err != nil {
		return fmt.Errorf("map task %d: %w", a.index, err)
	}
	if err := out.flush(); err != nil {
		return fmt.Errorf("map task %d output: %w", a.index, err)
	}
	done = true
	return nil
}

// mapOutput is where a map task's pairs go: a taskSink or a
// shuffleCollector. flush completes it; abort, on every failure exit,
// drops what it holds.
type mapOutput interface {
	mapred.OutputCollector
	flush() error
	abort()
}

// feedMapTask routes input into the mapper: cached pairs (aliased from the
// heap), a fresh read that populates the cache, or a plain streamed read
// for unnameable splits (§3.2.1, §4.2.1).
func (x *jobExec) feedMapTask(a *mapAssignment, mr engine.MapRun,
	out mapred.OutputCollector, ctx *engine.TaskContext) error {
	e := x.e
	if a.hit {
		pairs, _, err := e.cache.ReadRanges(a.place, a.cached)
		if err != nil {
			return err
		}
		ctx.IncrCounter(counters.M3RGroup, counters.CacheHitSplits, 1)
		expect(out, len(pairs))
		return runPairs(mr, pairs, out, ctx)
	}
	if a.splitPath != "" {
		reader, err := x.Resolved.InputFormat.GetRecordReader(a.split, ctx.Job)
		if err != nil {
			return err
		}
		pairs, err := materialize(reader)
		if cerr := reader.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		// The store keeps the path as long as the entry: a copy of its own,
		// not a view of the job's chunk of paths.
		if err := e.cache.putSplit(a.place, strings.Clone(a.splitPath), pairs); err != nil {
			return err
		}
		ctx.IncrCounter(counters.M3RGroup, counters.CacheMissSplits, 1)
		e.Stats().Add(sim.CacheWrites, 1)
		expect(out, len(pairs))
		return runPairs(mr, pairs, out, ctx)
	}
	// Unnameable split: stream it, bypassing the cache (§4.2.1).
	reader, err := x.Resolved.InputFormat.GetRecordReader(a.split, ctx.Job)
	if err != nil {
		return err
	}
	defer reader.Close()
	ctx.IncrCounter(counters.M3RGroup, counters.CacheMissSplits, 1)
	return mr.Run(reader, out, ctx)
}

// expect tells a task's sink how many records its output is made of
// (taskSink.expect); any other output needs no telling.
func expect(out mapred.OutputCollector, n int) {
	if s, ok := out.(*taskSink); ok {
		s.expect(n)
	}
}

// runPairs feeds in-memory pairs to the map task, preferring the direct
// fast path.
func runPairs(mr engine.MapRun, pairs []wio.Pair, out mapred.OutputCollector, ctx *engine.TaskContext) error {
	if pr, ok := mr.(engine.PairsRunner); ok {
		return pr.RunPairs(pairs, out, ctx)
	}
	return fmt.Errorf("m3r: map runner %T cannot consume cached pairs", mr)
}

// pairScratchPool recycles the growth buffers materialize appends into, so
// steady-state job sequences stop paying the doubling-garbage of reading
// splits of similar size over and over.
var pairScratchPool = sync.Pool{
	New: func() any {
		s := make([]wio.Pair, 0, 1024)
		return &s
	},
}

// ownedReader is a record reader that can hand byte bodies out as views of
// its read buffers, for a caller that keeps every record in fresh holders
// (formats.SeqReader.ReadOwned, formats.LineRecordReader.ReadOwned).
type ownedReader interface {
	ReadOwned()
}

// materialize reads a whole split with fresh holders per record, producing
// the key/value sequence the cache retains. It appends into a pooled
// scratch buffer and copies into an exactly-sized slice at the end — the
// cache retains the result indefinitely, so the returned slice must not
// alias pooled storage. A reader that can give its read windows up to the
// records it decodes (ownedReader: the SequenceFile and line readers) is
// asked to: byte bodies — a SequenceFile's from wio.OwnedFloor bytes up,
// every non-empty line — are then views of the bytes read, not copies.
func materialize(reader formats.RecordReader) ([]wio.Pair, error) {
	if o, ok := reader.(ownedReader); ok {
		o.ReadOwned()
	}
	sp := pairScratchPool.Get().(*[]wio.Pair)
	scratch := (*sp)[:0]
	release := func() {
		clear(scratch) // drop object references so the pool pins nothing
		*sp = scratch[:0]
		pairScratchPool.Put(sp)
	}
	for {
		k := reader.CreateKey()
		v := reader.CreateValue()
		ok, err := reader.Next(k, v)
		if err != nil {
			release()
			return nil, err
		}
		if !ok {
			out := make([]wio.Pair, len(scratch))
			copy(out, scratch)
			release()
			return out, nil
		}
		scratch = append(scratch, wio.Pair{Key: k, Value: v})
	}
}
