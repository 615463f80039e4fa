package kvstore_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"m3r/internal/kvstore"
	"m3r/internal/sim"
	"m3r/internal/x10"
)

// flakyTransport fails the first failN ships with a wrapped ErrTransport,
// then delivers normally — the injected wire fault for the cross-place
// error-path tests.
type flakyTransport struct {
	failN int
	ships int
}

func (f *flakyTransport) Ship(from, to int, frame []byte) ([]byte, error) {
	f.ships++
	if f.ships <= f.failN {
		return nil, fmt.Errorf("%w: injected fault %d", x10.ErrTransport, f.ships)
	}
	return frame, nil
}
func (f *flakyTransport) Name() string { return "flaky" }
func (f *flakyTransport) Close() error { return nil }

// TestCreateReaderTransportFailureSurfaces pins the cross-place error path:
// a wire fault during a remote read must reach the caller as ErrTransport,
// must not corrupt the store, and must not leak the reading place's worker
// slots — the same caller retries on the healed wire and succeeds.
func TestCreateReaderTransportFailureSurfaces(t *testing.T) {
	tr := &flakyTransport{failN: 1}
	rt := x10.NewRuntime(x10.Options{
		Places: 2, WorkersPerPlace: 1,
		Transport: tr, Stats: sim.NewStats(), Cost: sim.Zero(),
	})
	s := kvstore.New(rt)
	w, err := s.CreateWriter(0, "/blk", "tag")
	if err != nil {
		t.Fatal(err)
	}
	w.AppendAll(pairsN(5))
	info, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}

	// The remote read rides a worker slot, as engine tasks do. The fault
	// must unwind out of At — not wedge the slot.
	var readErr error
	rt.At(1, func() {
		_, readErr = s.CreateReader(1, "/blk", info)
	})
	if !errors.Is(readErr, x10.ErrTransport) {
		t.Fatalf("want ErrTransport from remote read, got %v", readErr)
	}

	// Local reads never touch the wire: unaffected by the broken transport.
	r, err := s.CreateReader(0, "/blk", info)
	if err != nil {
		t.Fatalf("local read after transport fault: %v", err)
	}
	if r.Len() != 5 || r.Remote {
		t.Fatalf("local read: len=%d remote=%v", r.Len(), r.Remote)
	}

	// WorkersPerPlace is 1: if the failed read leaked its slot, this At
	// would block forever. Run it under a watchdog.
	done := make(chan struct{})
	go func() {
		rt.At(1, func() {
			r, err := s.CreateReader(1, "/blk", info)
			if err != nil {
				t.Errorf("remote read after wire healed: %v", err)
				return
			}
			if r.Len() != 5 || !r.Remote {
				t.Errorf("healed remote read: len=%d remote=%v", r.Len(), r.Remote)
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker slot leaked: retry blocked on At")
	}
	// The failed read's one ship, then the healed read's one: the block's
	// one payload chunk with its table behind it.
	if tr.ships != 2 {
		t.Fatalf("transport shipped %d times, want 2", tr.ships)
	}
}

// TestCreateReaderDeadTCPWorker is the same path over the real TCP backend:
// the destination worker is gone, the read fails with ErrTransport, and the
// store's local data stays readable.
func TestCreateReaderDeadTCPWorker(t *testing.T) {
	fs, err := x10.ServeFrames("127.0.0.1:0", 1, x10.FrameServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := fs.Addr()
	fs.Close() // worker dead before any read
	tr := x10.NewTCPTransport([]string{"", addr}, x10.TCPOptions{DialTimeout: 2 * time.Second})
	rt := x10.NewRuntime(x10.Options{
		Places: 2, WorkersPerPlace: 2,
		Transport: tr, Stats: sim.NewStats(), Cost: sim.Zero(),
	})
	defer rt.Close()
	s := kvstore.New(rt)
	w, err := s.CreateWriter(0, "/blk", "tag")
	if err != nil {
		t.Fatal(err)
	}
	w.AppendAll(pairsN(3))
	info, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateReader(1, "/blk", info); !errors.Is(err, x10.ErrTransport) {
		t.Fatalf("want ErrTransport, got %v", err)
	}
	if r, err := s.CreateReader(0, "/blk", info); err != nil || r.Len() != 3 {
		t.Fatalf("local read: %v", err)
	}
}
