package hadoop

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/mapred"
	"m3r/internal/spill"
	"m3r/internal/wio"
)

// runReduceTask is the body of one reduce task attempt on node: fetch every
// map task's segment for this partition (network when the map ran elsewhere),
// externally merge the sorted segments, group, reduce, and write committed
// output (§3.1).
func (r *jobRun) runReduceTask(ctx *engine.TaskContext, partition int, node string, attempt int) error {
	r.engine.cost.ChargeJVMStart(r.engine.Stats())
	taskJob := ctx.Job

	reduceDir := filepath.Join(r.jobDir, fmt.Sprintf("reduce_%06d_%d", partition, attempt))
	if err := os.MkdirAll(reduceDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(reduceDir)

	// Copy phase: pull this partition's segment from every map output.
	segPaths, err := r.fetchSegments(partition, node, reduceDir, ctx)
	if err != nil {
		return err
	}

	// Sort phase: external k-way merge of the fetched (sorted) segments.
	rawCmp, err := r.Resolved.RawKeyComparator(r.Conf.MapOutputKeyClass())
	if err != nil {
		return err
	}
	var streams []*spill.Stream
	for _, p := range segPaths {
		s, err := spill.OpenFile(p)
		if err != nil {
			engine.CloseAllOnErr(streams)
			return err
		}
		streams = append(streams, s)
	}
	// The segment merge stages across worker goroutines when the task has
	// enough map segments and the job asks for it (conf.KeyMergeParallelism)
	// — byte-identical output either way. The lifecycle lets a kill abort
	// an engaged staged merge's workers directly.
	mergeCfg := engine.MergeConfigFromJob(taskJob)
	mergeCfg.Lifecycle = r.Lifecycle
	m, err := newStagedMerger(streams, rawCmp, mergeCfg, ctx.Cells.ParallelMergeStages)
	if err != nil {
		return err
	}
	defer m.Close()

	// Reduce phase.
	reducer := r.Resolved.NewReduceRun()
	reducer.Configure(taskJob)
	out, err := r.OpenTaskOutput(taskJob, ctx.TaskID, fmt.Sprintf("part-%05d", partition))
	if err != nil {
		return err
	}
	// Deferred, so a panicking reducer aborts its attempt too: the
	// attempt-scoped scratch is discarded, never renamed into place.
	defer out.Abort()
	outputCell := ctx.Cells.ReduceOutputRecords
	lc := r.Lifecycle
	collector := mapred.CollectorFunc(func(key, value wio.Writable) error {
		// Per-record cancel check on the reduce output path.
		if err := lc.Err(); err != nil {
			return err
		}
		outputCell.Increment(1)
		return out.Write(key, value)
	})

	if err := r.driveGroupedReduce(m, reducer, collector, ctx); err != nil {
		return err
	}
	return out.Commit()
}

// fetchSegments copies this partition's byte range out of every map output
// file into the reducer's local directory, charging network cost for
// cross-node fetches — the copy phase of the Hadoop shuffle.
func (r *jobRun) fetchSegments(partition int, node, reduceDir string, ctx *engine.TaskContext) ([]string, error) {
	e, stats := r.engine, r.engine.Stats()
	var out []string
	for i, mo := range r.mapOutputs {
		// Per-segment cancel check: a killed job stops fetching (and paying
		// network cost) at the next segment boundary.
		if err := r.Lifecycle.Err(); err != nil {
			return nil, err
		}
		if mo == nil {
			return nil, fmt.Errorf("hadoop: map output %d missing", i)
		}
		seg := mo.segments[partition]
		if seg.Len == 0 {
			continue
		}
		src, err := os.Open(mo.file)
		if err != nil {
			return nil, err
		}
		if _, err := src.Seek(seg.Off, io.SeekStart); err != nil {
			src.Close()
			return nil, err
		}
		dstPath := filepath.Join(reduceDir, fmt.Sprintf("seg_%06d", i))
		dst, err := createLocalFile(dstPath)
		if err != nil {
			src.Close()
			return nil, err
		}
		n, err := io.Copy(dst, io.LimitReader(src, seg.Len))
		src.Close()
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		ctx.IncrCounter(counters.TaskGroup, counters.ReduceShuffleBytes, n)
		e.cost.ChargeDisk(stats, 2*n) // read map side + write reduce side
		if mo.node != node {
			// Remote fetch crosses the cluster network.
			e.cost.ChargeNet(stats, n)
		}
		out = append(out, dstPath)
	}
	return out, nil
}

// groupingRawComparator returns a raw comparator for group-boundary
// detection when one is sound: the grouping comparator itself when it
// compares raw bytes, else the key type's raw comparator when no explicit
// grouping comparator overrides the sort order. Returns nil when only the
// deserializing path is correct.
func (r *jobRun) groupingRawComparator() wio.RawComparator {
	if raw, ok := r.Resolved.GroupCmp.(wio.RawComparator); ok {
		return raw
	}
	if r.Conf.Get(conf.KeyGroupingComparatorClass) == "" {
		return r.Resolved.RawSortCmp
	}
	return nil
}

// driveGroupedReduce streams the merged record sequence into the reducer
// group by group, deserializing records into fresh writables. Group
// boundaries are detected on the serialized keys when a raw comparator is
// available (Hadoop's fast path), else by deserializing.
func (r *jobRun) driveGroupedReduce(m *merger, reducer engine.ReduceRun,
	out mapred.OutputCollector, ctx *engine.TaskContext) error {
	keyClass := r.Conf.MapOutputKeyClass()
	valClass := r.Conf.MapOutputValueClass()
	rawGroup := r.groupingRawComparator()
	newKey := func(b []byte) (wio.Writable, error) {
		k, err := wio.New(keyClass)
		if err != nil {
			return nil, err
		}
		return k, wio.Unmarshal(b, k)
	}
	newVal := func(b []byte) (wio.Writable, error) {
		v, err := wio.New(valClass)
		if err != nil {
			return nil, err
		}
		return v, wio.Unmarshal(b, v)
	}

	cur, ok, err := m.Next()
	if err != nil {
		return err
	}
	for ok {
		// Per-group cancel check; values consumed by the reducer poll again
		// through the output collector, and the drain loop below covers
		// groups the reducer abandons early.
		if err := r.Lifecycle.Err(); err != nil {
			return err
		}
		groupKey, err := newKey(cur.K)
		if err != nil {
			return err
		}
		groupKeyBytes := append([]byte(nil), cur.K...)
		ctx.Cells.ReduceInputGroups.Increment(1)
		it := &mergeValues{
			run: r, m: m, cur: &cur, ok: &ok,
			groupKey: groupKey, groupKeyBytes: groupKeyBytes,
			rawGroup: rawGroup, newVal: newVal, ctx: ctx,
		}
		if err := reducer.Reduce(groupKey, it, out, ctx); err != nil {
			return err
		}
		// Drain any values the reducer did not consume so the next group
		// starts at a group boundary. A kill lands at the next drained value:
		// an unbounded group cannot pin a killed task.
		for {
			if err := r.Lifecycle.Err(); err != nil {
				return err
			}
			if _, more := it.Next(); !more {
				break
			}
		}
		if it.err != nil {
			return it.err
		}
	}
	return reducer.Close()
}

// mergeValues iterates the values of the current group directly off the
// merger, advancing it until the grouping comparator reports a new key.
type mergeValues struct {
	run           *jobRun
	m             *merger
	cur           *spill.Rec
	ok            *bool
	groupKey      wio.Writable
	groupKeyBytes []byte
	rawGroup      wio.RawComparator
	newVal        func([]byte) (wio.Writable, error)
	ctx           *engine.TaskContext
	err           error
	done          bool
}

// Next implements mapred.ValueIterator.
func (it *mergeValues) Next() (wio.Writable, bool) {
	if it.done || it.err != nil || !*it.ok {
		return nil, false
	}
	// Does the current record still belong to this group? Compare the
	// serialized keys when possible; deserialize otherwise.
	if it.rawGroup != nil {
		if it.rawGroup.CompareRaw(it.groupKeyBytes, it.cur.K) != 0 {
			it.done = true
			return nil, false
		}
	} else {
		curKey, err := wio.New(it.run.Conf.MapOutputKeyClass())
		if err != nil {
			it.err = err
			return nil, false
		}
		if err := wio.Unmarshal(it.cur.K, curKey); err != nil {
			it.err = err
			return nil, false
		}
		if it.run.Resolved.GroupCmp.Compare(it.groupKey, curKey) != 0 {
			it.done = true
			return nil, false
		}
	}
	v, err := it.newVal(it.cur.V)
	if err != nil {
		it.err = err
		return nil, false
	}
	it.ctx.Cells.ReduceInputRecords.Increment(1)
	next, ok, err := it.m.Next()
	if err != nil {
		it.err = err
		return nil, false
	}
	*it.cur = next
	*it.ok = ok
	return v, true
}
