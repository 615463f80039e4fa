package m3r

import (
	"fmt"

	"m3r/internal/conf"
	"m3r/internal/engine"
	"m3r/internal/mapred"
	"m3r/internal/wio"
)

// runReduceTask is the body of one reduce partition at its stable place.
func (x *jobExec) runReduceTask(ctx *engine.TaskContext, q int) error {
	place := x.e.PlaceOfPartition(q)
	ctx.Job.SetInt(conf.KeyM3RTaskPlace, place)

	// The HMR API promises reducers sorted input even in memory. Map tasks
	// shipped sorted runs (resident or spilled); merge them stably through
	// the tournament tree, streaming straight into the reducer instead of
	// materializing a merged copy of the partition. With staging configured
	// and enough runs, contiguous subsets of the run set merge on worker
	// goroutines — spilled runs decode on those workers, overlapping disk
	// decode with final-merge consumption — and the final tournament still
	// streams into DriveReduce.
	readers, err := x.parts[q].takeReaders(ctx)
	if err != nil {
		return err
	}
	merged, err := engine.NewStagedMergeIter(readers, x.Resolved.SortCmp, x.mergeCfg, ctx.Cells.ParallelMergeStages)
	if err != nil {
		return err
	}
	defer merged.Close()

	reducer := x.Resolved.NewReduceRun()
	reducer.Configure(ctx.Job)

	sink, err := x.openTaskSink(ctx, place, q, x.Resolved.ReduceImmutable)
	if err != nil {
		return err
	}
	defer sink.abort()
	cells := &ctx.Cells
	collector := mapred.CollectorFunc(func(k, v wio.Writable) error {
		cells.ReduceOutputRecords.Increment(1)
		return sink.write(k, v)
	})

	// The cancel wrapper is the reduce phase's per-record check: one atomic
	// load per pair, surfacing the kill as the stream error so the merge
	// closes and the sink aborts through the normal failure path.
	in := engine.CancelPairIter(merged, x.Lifecycle)
	if err := engine.DriveReduce(reducer, x.Resolved.GroupCmp, in, collector, ctx, false); err != nil {
		return fmt.Errorf("reduce task %d: %w", q, err)
	}
	return sink.commit()
}
