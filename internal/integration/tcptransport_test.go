// TCP loopback place transport equivalence: the same jobs, the same knobs,
// but every cross-place shuffle frame crosses a real socket to an in-process
// frame server and back — and the outputs must be byte-identical to the
// inproc backend. Plus fault coverage: frame servers that drop their
// connections mid-shuffle must fail the job with the distinct transport
// error, promptly, leaving the engine's shuffle pool fully drained.
package integration_test

import (
	"errors"
	"testing"
	"time"

	"m3r/internal/counters"
	"m3r/internal/lab"
	"m3r/internal/microbench"
	"m3r/internal/sim"
	"m3r/internal/wordcount"
	"m3r/internal/x10"
)

// startFrameServers starts one in-process frame server per place on
// 127.0.0.1, closed with the test, and returns their addresses index-aligned
// with place ids.
func startFrameServers(t *testing.T, places int, opts x10.FrameServerOptions) []string {
	t.Helper()
	addrs := make([]string, places)
	for p := range addrs {
		fs, err := x10.ServeFrames("127.0.0.1:0", p, opts)
		if err != nil {
			t.Fatalf("frame server for place %d: %v", p, err)
		}
		t.Cleanup(func() { fs.Close() })
		addrs[p] = fs.Addr()
	}
	return addrs
}

// TestTCPLoopbackEquivalenceWordCount runs WordCount on two clusters built
// from the same seed — one inproc, one over frame servers on 127.0.0.1 —
// and requires byte-identical part files, while the TCP leg proves the
// frames really crossed the wire (NET_* counters).
func TestTCPLoopbackEquivalenceWordCount(t *testing.T) {
	ref := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(ref.FS, "/data/T", 128<<10, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.M3R.Submit(wordcount.NewJob("/data/T", "/out/wc", 3, true)); err != nil {
		t.Fatalf("inproc: %v", err)
	}
	refParts := readRawParts(t, ref.FS, "/out/wc")

	tr := x10.NewTCPTransport(startFrameServers(t, 2, x10.FrameServerOptions{}), x10.TCPOptions{})
	c := newCluster(t, lab.Options{Nodes: 2, Transport: tr})
	if err := wordcount.Generate(c.FS, "/data/T", 128<<10, 11); err != nil {
		t.Fatal(err)
	}
	rep, err := c.M3R.Submit(wordcount.NewJob("/data/T", "/out/wc", 3, true))
	if err != nil {
		t.Fatalf("tcp: %v", err)
	}
	assertSameParts(t, "tcp-loopback", readRawParts(t, c.FS, "/out/wc"), refParts)

	if n := rep.Counters.Value(counters.M3RGroup, counters.NetFrames); n == 0 {
		t.Error("tcp job reported no NET_FRAMES")
	}
	if n := rep.Counters.Value(counters.M3RGroup, counters.NetBytes); n == 0 {
		t.Error("tcp job reported no NET_BYTES")
	}
	if n := c.Stats.Get(sim.NetFrames); n == 0 {
		t.Error("engine stats saw no net.frames")
	}
	// The inproc leg must not grow network counters.
	if n := ref.Stats.Get(sim.NetFrames); n != 0 {
		t.Errorf("inproc leg counted %d net.frames", n)
	}
}

// TestTCPLoopbackEquivalenceRepartition is the same over-the-wire identity
// check for the §6.1.1 repartition job — sequence-file records, large
// opaque values — compared with the decoded-record oracle.
func TestTCPLoopbackEquivalenceRepartition(t *testing.T) {
	cfg := microbench.Config{
		Pairs: 200, ValueBytes: 512, Percent: 0,
		Iterations: 1, Partitions: 3, Dir: "/mb", Seed: 5,
	}
	ref := newCluster(t, lab.Options{Nodes: 2})
	if err := microbench.GenerateUnaligned(ref.FS, cfg, "/mb/foreign"); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.M3R.Submit(cfg.RepartitionJob("/mb/foreign", "/mb/out")); err != nil {
		t.Fatalf("inproc: %v", err)
	}
	refParts := readSeqParts(t, ref.FS, "/mb/out")

	tr := x10.NewTCPTransport(startFrameServers(t, 2, x10.FrameServerOptions{}), x10.TCPOptions{})
	c := newCluster(t, lab.Options{Nodes: 2, Transport: tr})
	if err := microbench.GenerateUnaligned(c.FS, cfg, "/mb/foreign"); err != nil {
		t.Fatal(err)
	}
	rep, err := c.M3R.Submit(cfg.RepartitionJob("/mb/foreign", "/mb/out"))
	if err != nil {
		t.Fatalf("tcp: %v", err)
	}
	assertSameSeqParts(t, "tcp-loopback", readSeqParts(t, c.FS, "/mb/out"), refParts)
	if n := rep.Counters.Value(counters.M3RGroup, counters.NetFrames); n == 0 {
		t.Error("tcp repartition reported no NET_FRAMES")
	}
}

// TestTCPWorkerDropMidShuffleFailsJob is the fault leg: every frame server
// dies after its first served frame (listener and connections drop, so
// redials fail too). The job must fail with the distinct transport error — no hang
// — and the engine's shuffle pool must drain back to zero.
func TestTCPWorkerDropMidShuffleFailsJob(t *testing.T) {
	addrs := startFrameServers(t, 2, x10.FrameServerOptions{FailAfterFrames: 1})
	tr := x10.NewTCPTransport(addrs, x10.TCPOptions{DialTimeout: 5 * time.Second})
	c := newCluster(t, lab.Options{Nodes: 2, ShuffleBudgetBytes: 1 << 20, Transport: tr})
	// 256 KiB over 64 KiB blocks: four-plus map tasks across two places, so
	// with both servers failing after one frame, some map's ship hits a
	// dead one deterministically.
	if err := wordcount.Generate(c.FS, "/data/F", 256<<10, 13); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.M3R.Submit(wordcount.NewJob("/data/F", "/out/fault", 3, true))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("job succeeded despite every worker dropping mid-shuffle")
		}
		if !errors.Is(err, x10.ErrTransport) {
			t.Fatalf("want ErrTransport in the failure chain, got %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("job hung after worker connection drop")
	}
	if held := c.M3R.ShufflePoolHeldBytes(); held != 0 {
		t.Fatalf("shuffle pool still holds %d bytes after failed job", held)
	}
}
