package m3r

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"m3r/internal/engine"
	"m3r/internal/sim"
	"m3r/internal/spill"
)

// TestKillDuringSpillWrite blocks a map task mid-spill-write, kills the job
// while the write is blocked, and checks the kill wins: the job returns
// ErrJobKilled, the in-flight write is allowed to finish (no torn run
// files), and streams, pooled buffers and scratch dirs all return to
// baseline.
func TestKillDuringSpillWrite(t *testing.T) {
	reached := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	swapSpillWrite(t, func(path string, enc spill.EncodedRun) (int64, error) {
		// Only the first write anywhere blocks, so the kill lands with
		// other map tasks still flushing.
		if first.CompareAndSwap(false, true) {
			close(reached)
			<-release
		}
		return spill.WriteEncodedFile(path, enc)
	})

	e := newFaultEngine(t, 2)
	streamBase, bufBase := spill.OpenStreamCount(), encodeBufsOut.Load()
	dirBase := leftoverSpillDirs(t)

	lc := engine.NewJobLifecycle()
	errCh := make(chan error, 1)
	go func() {
		_, err := e.SubmitControlled(spillingJob("/out/killspill"), lc)
		errCh <- err
	}()
	select {
	case <-reached:
	case err := <-errCh:
		t.Fatalf("job finished before any spill write: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("no map task ever reached a spill write")
	}
	lc.Kill(engine.ErrJobKilled)
	close(release)

	var err error
	select {
	case err = <-errCh:
	case <-time.After(30 * time.Second):
		t.Fatal("killed job never terminated")
	}
	if !errors.Is(err, engine.ErrJobKilled) {
		t.Fatalf("job error = %v, want ErrJobKilled", err)
	}
	if got := e.Stats().Get(sim.JobsKilled); got != 1 {
		t.Errorf("jobs.killed = %d, want 1", got)
	}
	if got := spill.OpenStreamCount(); got != streamBase {
		t.Errorf("OpenStreamCount %d, baseline %d: leaked spill streams", got, streamBase)
	}
	if got := encodeBufsOut.Load(); got != bufBase {
		t.Errorf("encode buffers out %d, baseline %d: leaked pooled buffers", got, bufBase)
	}
	if got := leftoverSpillDirs(t); got != dirBase {
		t.Errorf("%d spill scratch dirs left behind (baseline %d)", got, dirBase)
	}
}
