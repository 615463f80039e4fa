package engine

import (
	"m3r/internal/counters"
	"m3r/internal/mapred"
	"m3r/internal/wio"
)

// SortPairs stably sorts pairs by key with cmp. Stability matters: Hadoop
// preserves the map-output order of equal keys within one task, and tests
// rely on deterministic output. A cmp that is a wio.SortPrefixer has most
// of its comparisons done on cached integers (see wio.SortStable).
func SortPairs(pairs []wio.Pair, cmp wio.Comparator) {
	var prefix func(wio.Pair) (uint64, bool)
	if p, ok := cmp.(wio.SortPrefixer); ok {
		prefix = func(kv wio.Pair) (uint64, bool) { return p.SortPrefix(kv.Key) }
	}
	wio.SortStable(pairs, prefix, func(a, b wio.Pair) int {
		return cmp.Compare(a.Key, b.Key)
	})
}

// PairIter is a stream of sorted pairs feeding a reduce task: a MergeIter
// over shuffle runs, or a SlicePairs over an in-memory buffer.
type PairIter interface {
	Next() (wio.Pair, bool, error)
}

// SlicePairs returns a PairIter over an in-memory sorted slice (the same
// cursor the merge's in-memory leaf uses).
func SlicePairs(pairs []wio.Pair) PairIter { return &SliceRun{pairs: pairs} }

// groupValues iterates the values of the current group directly off the
// pair stream, advancing it until groupCmp reports a new key. cur/ok are
// the stream's lookahead, so the group boundary survives the iterator; one
// groupValues serves every group of a DriveReduce (a reducer does not keep
// its values iterator past its Reduce call, as in Hadoop).
type groupValues struct {
	in         PairIter
	groupCmp   wio.Comparator
	cur        wio.Pair
	ok         bool
	groupKey   wio.Writable
	recordCell *counters.Counter
	err        error
	first      bool
	done       bool
}

// Next implements mapred.ValueIterator.
func (g *groupValues) Next() (wio.Writable, bool) {
	if g.done || g.err != nil || !g.ok {
		return nil, false
	}
	if g.first {
		g.first = false
	} else if g.groupCmp.Compare(g.groupKey, g.cur.Key) != 0 {
		g.done = true
		return nil, false
	}
	v := g.cur.Value
	g.recordCell.Increment(1)
	g.cur, g.ok, g.err = g.in.Next()
	if g.err != nil {
		return nil, false
	}
	return v, true
}

// DriveReduce feeds the sorted pair stream group-by-group (per groupCmp)
// into run, emitting through out. The stream is consumed one pair ahead —
// a MergeIter streams runs straight through without a materialized merged
// copy. combine selects the combiner counter names instead of the reducer
// ones.
func DriveReduce(run ReduceRun, groupCmp wio.Comparator, in PairIter,
	out mapred.OutputCollector, ctx *TaskContext, combine bool) error {
	groupCell, recordCell := &ctx.Cells.ReduceInputGroups, &ctx.Cells.ReduceInputRecords
	if combine {
		groupCell, recordCell = nil, &ctx.Cells.CombineInputRecords
	}
	values := &groupValues{in: in, groupCmp: groupCmp, recordCell: recordCell}
	if values.cur, values.ok, values.err = in.Next(); values.err != nil {
		return values.err
	}
	for values.ok {
		if groupCell != nil {
			groupCell.Increment(1)
		}
		values.groupKey, values.first, values.done = values.cur.Key, true, false
		if err := run.Reduce(values.groupKey, values, out, ctx); err != nil {
			return err
		}
		// Drain any values the reducer did not consume so the next group
		// starts at a group boundary.
		for {
			if _, more := values.Next(); !more {
				break
			}
		}
		if values.err != nil {
			return values.err
		}
	}
	return run.Close()
}

// Combine runs the job's combiner over an unsorted buffer of map output
// pairs and returns the combined pairs: M3R's sort-then-combine path, taken
// before it ships a buffer into the shuffle when the job's combine cannot
// go through CombineTable. (The Hadoop engine combines serialized records
// through RawMerge.Reduce's combine mode.)
//
// Hadoop serializes combiner output the moment it is collected, so a
// combiner may legally reuse its output objects between groups. To keep
// the returned pairs stable, unmarked combiners' outputs are cloned here
// (ImmutableOutput combiners' outputs are returned as-is, §4.1).
func Combine(rj *ResolvedJob, pairs []wio.Pair, ctx *TaskContext) ([]wio.Pair, error) {
	run := rj.NewCombineRun()
	if run == nil || len(pairs) == 0 {
		return pairs, nil
	}
	run.Configure(rj.Job)
	SortPairs(pairs, rj.SortCmp)
	// out grows with what the combiner emits, typically a small fraction of
	// len(pairs).
	var out []wio.Pair
	collector := mapred.CollectorFunc(func(key, value wio.Writable) error {
		if !rj.CombineImmutable {
			key, value = wio.MustClone(key), wio.MustClone(value)
		}
		out = append(out, wio.Pair{Key: key, Value: value})
		return nil
	})
	if err := DriveReduce(run, rj.GroupCmp, SlicePairs(pairs), collector, ctx, true); err != nil {
		return nil, err
	}
	ctx.IncrCounter(counters.TaskGroup, counters.CombineOutputRecords, int64(len(out)))
	return out, nil
}
