package m3r

import (
	"fmt"

	"m3r/internal/conf"
	"m3r/internal/engine"
	"m3r/internal/mapred"
)

// runReduceTask is the body of one reduce partition at its stable place.
func (x *jobExec) runReduceTask(ctx *engine.TaskContext, q int) error {
	place := x.e.PlaceOfPartition(q)
	ctx.Job.SetInt(conf.KeyM3RTaskPlace, place)

	reducer := x.Resolved.NewReduceRun()
	reducer.Configure(ctx.Job)

	sink, err := x.openTaskSink(ctx, place, q, x.Resolved.ReduceImmutable)
	if err != nil {
		return err
	}
	defer sink.abort()
	sink.records = &ctx.Cells.ReduceOutputRecords

	// The HMR API promises reducers sorted input even in memory. Map tasks
	// shipped sorted runs; merge them stably through the tournament tree,
	// streaming straight into the reducer instead of materializing a merged
	// copy of the partition.
	if x.budgets != nil {
		err = x.reduceSerialized(ctx, q, reducer, sink)
	} else {
		err = x.reducePairs(ctx, q, reducer, sink)
	}
	if err != nil {
		return fmt.Errorf("reduce task %d: %w", q, err)
	}
	return sink.flush()
}

// reducePairs is an unbudgeted job's reduce: its runs are objects on the
// heap, merged and grouped as objects.
func (x *jobExec) reducePairs(ctx *engine.TaskContext, q int, reducer engine.ReduceRun, out mapred.OutputCollector) error {
	span := ctx.Begin(engine.PhaseMergeOpen, x.parts[q].place)
	// in is the merge through the job's cancel check, the reduce phase's
	// per-record check: one atomic load per pair, surfacing the kill as the
	// stream error so the merge closes and the sink aborts through the
	// normal failure path.
	merged, in, nrecs, err := x.parts[q].openMerge()
	span.End()
	if err != nil {
		return err
	}
	expect(out, nrecs)
	defer merged.Close()
	return engine.DriveReduce(reducer, x.Resolved.GroupCmp, in, out, ctx, false)
}

// reduceSerialized is a budgeted job's reduce: its runs are bytes, resident
// or spilled, and take the raw driver the Hadoop engine's segments take.
func (x *jobExec) reduceSerialized(ctx *engine.TaskContext, q int, reducer engine.ReduceRun, out mapred.OutputCollector) error {
	span := ctx.Begin(engine.PhaseMergeOpen, x.parts[q].place)
	srcs, keyClass, valClass, nrecs, err := x.parts[q].takeSources(ctx)
	if err != nil {
		span.End()
		return err
	}
	if len(srcs) == 0 {
		span.End()
		// No run, so no class to decode as, and nothing to decode.
		return reducer.Close()
	}
	expect(out, nrecs)
	merged, err := x.Resolved.OpenRawMerge(srcs, keyClass, nrecs, x.Lifecycle)
	span.End()
	if err != nil {
		return err
	}
	defer merged.Close()
	return merged.Reduce(valClass, reducer, out, ctx, false)
}
