package hadoop

import (
	"fmt"

	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/mapred"
	"m3r/internal/spill"
	"m3r/internal/wio"
)

// runReduceTask is the body of one reduce task attempt on node: open every
// map task's segment for this partition in place (network when the map ran
// elsewhere), externally merge the sorted segments, group, reduce, and write
// committed output (§3.1).
func (r *jobRun) runReduceTask(ctx *engine.TaskContext, partition, place int, node string) error {
	r.engine.cost.ChargeJVMStart(r.engine.Stats())
	taskJob := ctx.Job

	// Copy phase: open this partition's segment of every map output.
	span := ctx.Begin(engine.PhaseArrive, place)
	streams, err := r.fetchSegments(partition, node, ctx)
	span.End()
	if err != nil {
		return err
	}

	// Sort phase: external k-way merge of the fetched (sorted) segments, raw:
	// a record stays bytes until the reducer is handed it. The lifecycle is
	// the reduce loop's per-record cancel check.
	span = ctx.Begin(engine.PhaseMergeOpen, place)
	m, err := r.Resolved.OpenRawMerge(streams, r.Conf.MapOutputKeyClass(), -1, r.Lifecycle)
	span.End()
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
	outputCell := &ctx.Cells.ReduceOutputRecords
	lc := r.Lifecycle
	collector := mapred.CollectorFunc(func(key, value wio.Writable) error {
		// Per-record cancel check on the reduce output path.
		if err := lc.Err(); err != nil {
			return err
		}
		outputCell.Increment(1)
		return out.Write(key, value)
	})

	if err := m.Reduce(r.Conf.MapOutputValueClass(), reducer, collector, ctx, false); err != nil {
		return err
	}
	span = ctx.Begin(engine.PhaseCommit, place)
	defer span.End()
	return out.Commit()
}

// fetchSegments opens this partition's byte range of every map output file
// where the map task left it — the copy phase of the Hadoop shuffle, read
// once, as Hadoop's copier receives it once. What the copy costs stays
// modelled: disk on both sides, network for another node's segment. On
// error it closes what it has opened.
func (r *jobRun) fetchSegments(partition int, node string, ctx *engine.TaskContext) (srcs []engine.RecSource, err error) {
	defer func() {
		if err != nil {
			engine.CloseAllOnErr(srcs)
		}
	}()
	e, stats := r.engine, r.engine.Stats()
	for i, mo := range r.mapOutputs {
		// Per-segment cancel check: a killed job stops fetching (and paying
		// network cost) at the next segment boundary.
		if err := r.Lifecycle.Err(); err != nil {
			return srcs, err
		}
		if mo == nil {
			return srcs, fmt.Errorf("hadoop: map output %d missing", i)
		}
		seg := mo.segments[partition]
		if seg.Len == 0 {
			continue
		}
		if err := injectFault(mo.file); err != nil {
			return srcs, err
		}
		s, err := spill.OpenSegment(mo.file, seg)
		if err != nil {
			return srcs, err
		}
		srcs = append(srcs, s)
		ctx.IncrCounter(counters.TaskGroup, counters.ReduceShuffleBytes, seg.Len)
		e.cost.ChargeDisk(stats, 2*seg.Len) // read map side + write reduce side
		if mo.node != node {
			// Remote fetch crosses the cluster network.
			e.cost.ChargeNet(stats, seg.Len)
		}
	}
	return srcs, nil
}
