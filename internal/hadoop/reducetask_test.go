package hadoop

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/engine"
	"m3r/internal/sim"
	"m3r/internal/spill"
)

// writeMapOutput writes one map output file of two partitions, n records
// in the first and m in the second, as a map task's spill does.
func writeMapOutput(t *testing.T, path string, n, m int) *mapOutput {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	out := &mapOutput{node: "node0", file: path}
	var off int64
	for p, count := range []int{n, m} {
		sw := spill.NewSegmentWriter(w, spill.CodecNone)
		for i := range count {
			if err := sw.Write(spill.Rec{K: marshalInt(t, int32(i)), V: []byte{byte(p)}}); err != nil {
				t.Fatal(err)
			}
		}
		segLen, _, err := sw.Finish()
		if err != nil {
			t.Fatal(err)
		}
		out.segments = append(out.segments, spill.Segment{Off: off, Len: segLen})
		off += segLen
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFetchSegmentsClosesOnError: a reduce attempt opens every map output's
// non-empty segment of its partition where the map task left it, counting
// the bytes; when an open fails part way, the segments it already opened
// are closed.
func TestFetchSegmentsClosesOnError(t *testing.T) {
	dir := t.TempDir()
	job := conf.NewJob()
	run := &jobRun{
		engine: &Engine{host: &engine.Host{Stats: sim.NewStats()}, cost: sim.Zero()},
		Job:    &engine.Job{Conf: job},
	}
	for i, n := range []int{5, 3, 7} {
		// The second map output has nothing for partition 1.
		m := 4
		if i == 1 {
			m = 0
		}
		run.mapOutputs = append(run.mapOutputs, writeMapOutput(t, filepath.Join(dir, fmt.Sprintf("out_%d", i)), n, m))
	}
	// No fault but the one armed below, whatever the environment armed.
	SetCreateFileFault(nil)
	base := spill.OpenStreamCount()
	for p, want := range []int{3, 2} {
		ctx := engine.NewTaskContext(job, "reduce", nil)
		srcs, err := run.fetchSegments(p, "node0", ctx)
		if err != nil {
			t.Fatal(err)
		}
		var bytes int64
		for _, mo := range run.mapOutputs {
			bytes += mo.segments[p].Len
		}
		if len(srcs) != want || ctx.Cells.ReduceShuffleBytes.Value() != bytes {
			t.Errorf("partition %d: %d segments and REDUCE_SHUFFLE_BYTES %d, want %d and %d",
				p, len(srcs), ctx.Cells.ReduceShuffleBytes.Value(), want, bytes)
		}
		engine.CloseAllOnErr(srcs)
	}

	// The third open fails, through the fault seam.
	SetCreateFileFault(func(path string) error {
		if path == run.mapOutputs[2].file {
			return ErrInjectedFault
		}
		return nil
	})
	defer SetCreateFileFault(nil)
	if _, err := run.fetchSegments(0, "node0", engine.NewTaskContext(job, "reduce", nil)); !errors.Is(err, ErrInjectedFault) {
		t.Errorf("a failed open: %v, want the injected fault", err)
	}
	if got := spill.OpenStreamCount(); got != base {
		t.Errorf("OpenStreamCount %d after a failed open, baseline %d", got, base)
	}
}
