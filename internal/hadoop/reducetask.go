package hadoop

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

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

	// Sort phase: external k-way merge of the fetched (sorted) segments, raw:
	// a record stays bytes until the reducer is handed it.
	var streams []engine.RecSource
	for _, p := range segPaths {
		s, err := spill.OpenFile(p)
		if err != nil {
			engine.CloseAllOnErr(streams)
			return err
		}
		streams = append(streams, s)
	}
	// The lifecycle is the reduce loop's per-record cancel check.
	m, err := r.Resolved.OpenRawMerge(streams, r.Conf.MapOutputKeyClass(), -1, r.Lifecycle)
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

	if err := m.Reduce(r.Conf.MapOutputValueClass(), reducer, collector, ctx); err != nil {
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
