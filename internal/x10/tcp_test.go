package x10_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"m3r/internal/sim"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/x10"
)

// newTCPCluster starts one frame server per place and a transport over
// them, torn down with the test.
func newTCPCluster(t *testing.T, places int, opts x10.FrameServerOptions) (*x10.TCPTransport, []*x10.FrameServer) {
	t.Helper()
	servers := make([]*x10.FrameServer, places)
	addrs := make([]string, places)
	for p := 0; p < places; p++ {
		fs, err := x10.ServeFrames("127.0.0.1:0", p, opts)
		if err != nil {
			t.Fatalf("ServeFrames place %d: %v", p, err)
		}
		servers[p] = fs
		addrs[p] = fs.Addr()
		t.Cleanup(func() { fs.Close() })
	}
	tr := x10.NewTCPTransport(addrs, x10.TCPOptions{})
	t.Cleanup(func() { tr.Close() })
	return tr, servers
}

func TestTCPShipRoundTrip(t *testing.T) {
	tr, servers := newTCPCluster(t, 2, x10.FrameServerOptions{})
	stats := sim.NewStats()
	rt := x10.NewRuntime(x10.Options{Places: 2, Transport: tr, Stats: stats})
	defer rt.Close()
	if !rt.RemoteTransport() {
		t.Fatal("tcp runtime should report a remote transport")
	}

	frame := []byte("shuffle frame payload")
	got, err := rt.ShipFrame(0, 1, frame)
	if err != nil {
		t.Fatalf("ShipFrame: %v", err)
	}
	if string(got) != string(frame) {
		t.Fatalf("frame changed in transit: %q", got)
	}
	// A second ship reuses the pair's connection.
	if _, err := rt.ShipFrame(0, 1, []byte("second")); err != nil {
		t.Fatalf("second ShipFrame: %v", err)
	}
	if n := servers[1].Served(); n != 2 {
		t.Fatalf("worker 1 served %d frames, want 2", n)
	}
	if n := stats.Get(sim.NetFrames); n != 2 {
		t.Fatalf("net.frames = %d, want 2", n)
	}
	if n := stats.Get(sim.NetBytes); n != int64(len(frame)+len("second")) {
		t.Fatalf("net.bytes = %d", n)
	}
	if n := stats.Get(sim.NetRedials); n != 0 {
		t.Fatalf("net.redials = %d, want 0", n)
	}
}

func TestTCPShipPairsByteIdentityWithInproc(t *testing.T) {
	// The transport carries the encoder's frame verbatim, so ShipPairs over
	// TCP must deliver the same pairs as over inproc — decoded from the
	// same bytes.
	tr, _ := newTCPCluster(t, 2, x10.FrameServerOptions{})
	tcpRT := x10.NewRuntime(x10.Options{Places: 2, Transport: tr, Stats: sim.NewStats()})
	defer tcpRT.Close()
	inRT, _ := newRT(2, 2)

	var pairs []wio.Pair
	broadcast := types.NewText(strings.Repeat("broadcast-block", 50))
	for i := 0; i < 20; i++ {
		pairs = append(pairs, wio.Pair{Key: types.NewInt(int32(i)), Value: broadcast})
	}
	over, err := tr.Ship(0, 1, mustEncode(t, pairs))
	if err != nil {
		t.Fatalf("tcp Ship: %v", err)
	}
	if string(over) != string(mustEncode(t, pairs)) {
		t.Fatal("tcp frame bytes differ from encoder output")
	}
	tcpRes, err := tcpRT.ShipPairs(0, 1, pairs, true)
	if err != nil {
		t.Fatalf("tcp ShipPairs: %v", err)
	}
	inRes, err := inRT.ShipPairs(0, 1, pairs, true)
	if err != nil {
		t.Fatalf("inproc ShipPairs: %v", err)
	}
	if tcpRes.Bytes != inRes.Bytes || tcpRes.DedupHits != inRes.DedupHits {
		t.Fatalf("tcp (%d bytes, %d dedup) != inproc (%d bytes, %d dedup)",
			tcpRes.Bytes, tcpRes.DedupHits, inRes.Bytes, inRes.DedupHits)
	}
	for i := range pairs {
		if !wio.Equal(tcpRes.Pairs[i].Key, inRes.Pairs[i].Key) ||
			!wio.Equal(tcpRes.Pairs[i].Value, inRes.Pairs[i].Value) {
			t.Fatalf("pair %d differs across transports", i)
		}
	}
	// Dedup must survive the wire: repeated values arrive as aliases.
	if tcpRes.Pairs[0].Value != tcpRes.Pairs[1].Value {
		t.Fatal("dedup aliasing lost over tcp")
	}
}

func mustEncode(t *testing.T, pairs []wio.Pair) []byte {
	t.Helper()
	var sb strings.Builder
	enc := wio.NewEncoder(&sb, true)
	for _, p := range pairs {
		if err := enc.EncodePair(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return []byte(sb.String())
}

// reServe restarts a frame server on an address a closed one just freed,
// retrying briefly in case the OS is slow to release it.
func reServe(addr string, place int) (*x10.FrameServer, error) {
	var err error
	for i := 0; i < 50; i++ {
		var fs *x10.FrameServer
		if fs, err = x10.ServeFrames(addr, place, x10.FrameServerOptions{}); err == nil {
			return fs, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil, err
}

func TestTCPRedialAfterWorkerRestart(t *testing.T) {
	fs, err := x10.ServeFrames("127.0.0.1:0", 1, x10.FrameServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := fs.Addr()
	stats := sim.NewStats()
	tr := x10.NewTCPTransport([]string{"", addr}, x10.TCPOptions{Stats: stats})
	defer tr.Close()
	if _, err := tr.Ship(0, 1, []byte("a")); err != nil {
		t.Fatalf("first ship: %v", err)
	}
	// Worker restarts on the same address: the pooled connection is dead,
	// the next ship must redial once and succeed.
	fs.Close()
	fs2, err := reServe(addr, 1)
	if err != nil {
		t.Skipf("could not re-listen on %s: %v", addr, err)
	}
	defer fs2.Close()
	if _, err := tr.Ship(0, 1, []byte("b")); err != nil {
		t.Fatalf("ship after worker restart: %v", err)
	}
	if n := stats.Get(sim.NetRedials); n != 1 {
		t.Fatalf("net.redials = %d, want 1", n)
	}
}

func TestTCPShipDeadWorkerFailsWithErrTransport(t *testing.T) {
	fs, err := x10.ServeFrames("127.0.0.1:0", 1, x10.FrameServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := fs.Addr()
	fs.Close()
	tr := x10.NewTCPTransport([]string{"", addr}, x10.TCPOptions{DialTimeout: 2 * time.Second})
	defer tr.Close()
	_, err = tr.Ship(0, 1, []byte("x"))
	if !errors.Is(err, x10.ErrTransport) {
		t.Fatalf("want ErrTransport, got %v", err)
	}
}

func TestTCPShipWrongPlaceRejectedWithoutRedial(t *testing.T) {
	// A worker owning place 0 must reject frames addressed elsewhere, and
	// the transport must not redial on a worker-reported protocol error.
	fs, err := x10.ServeFrames("127.0.0.1:0", 0, x10.FrameServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	stats := sim.NewStats()
	tr := x10.NewTCPTransport([]string{"ignored", fs.Addr()}, x10.TCPOptions{Stats: stats})
	defer tr.Close()
	_, err = tr.Ship(0, 1, []byte("misrouted"))
	if !errors.Is(err, x10.ErrTransport) {
		t.Fatalf("want ErrTransport, got %v", err)
	}
	if !strings.Contains(fmt.Sprint(err), "place 1 reached worker for place 0") {
		t.Fatalf("want misrouting detail, got %v", err)
	}
	if n := stats.Get(sim.NetRedials); n != 0 {
		t.Fatalf("protocol error should not redial, net.redials = %d", n)
	}
}

func TestTCPFailAfterFramesDropsEverything(t *testing.T) {
	tr, servers := newTCPCluster(t, 2, x10.FrameServerOptions{FailAfterFrames: 1})
	if _, err := tr.Ship(0, 1, []byte("ok")); err != nil {
		t.Fatalf("frame within the fault budget should succeed: %v", err)
	}
	// The worker is now down: listener and connections dropped, so the
	// retry's redial fails too.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := tr.Ship(0, 1, []byte("after"))
		if err != nil {
			if !errors.Is(err, x10.ErrTransport) {
				t.Fatalf("want ErrTransport, got %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ships kept succeeding after FailAfterFrames")
		}
	}
	if got := servers[1].Served(); got != 1 {
		t.Fatalf("worker served %d frames, want 1", got)
	}
	// The untouched worker still serves.
	if _, err := tr.Ship(1, 0, []byte("other place")); err != nil {
		t.Fatalf("place 0's worker should be unaffected: %v", err)
	}
}

// TestTCPShipPairsAcrossChunks sends one destination a buffer of many
// chunks — small values, values that point into what arrives, one value
// larger than two ceiling-sized chunks, and an object repeated from the
// first chunk to the last — over a socket, one frame per chunk. What arrives
// is what the in-process transport delivers, back-references included; and a
// frame server that dies between two chunks of the buffer fails the send
// with ErrTransport, not with half a buffer decoded.
func TestTCPShipPairsAcrossChunks(t *testing.T) {
	repeated := types.NewBytes([]byte(strings.Repeat("repeated", 100)))
	var pairs []wio.Pair
	for i := 0; i < 600; i++ {
		var v wio.Writable
		switch {
		case i%50 == 0:
			v = repeated
		case i == 301:
			v = types.NewBytes([]byte(strings.Repeat("huge", 80<<10)))
		case i%2 == 0:
			v = types.NewBytes([]byte(strings.Repeat(string(rune('a'+i%26)), 20)))
		default:
			v = types.NewBytes([]byte(strings.Repeat(string(rune('A'+i%26)), 1500)))
		}
		pairs = append(pairs, wio.Pair{Key: types.NewInt(int32(i)), Value: v})
	}
	inRT, _ := newRT(2, 2)
	want, err := inRT.ShipPairs(0, 1, pairs, true)
	if err != nil {
		t.Fatal(err)
	}

	tr, servers := newTCPCluster(t, 2, x10.FrameServerOptions{})
	rt := x10.NewRuntime(x10.Options{Places: 2, Transport: tr, Stats: sim.NewStats()})
	defer rt.Close()
	got, err := rt.ShipPairs(0, 1, pairs, true)
	if err != nil {
		t.Fatal(err)
	}
	frames := servers[1].Served()
	if frames < 6 {
		t.Fatalf("buffer of %d bytes crossed in %d frames; it should span many chunks", got.Bytes, frames)
	}
	if got.Bytes != want.Bytes || got.DedupHits != want.DedupHits || got.DedupHits != 11 {
		t.Fatalf("tcp: %d bytes, %d back-references; inproc: %d and %d", got.Bytes, got.DedupHits, want.Bytes, want.DedupHits)
	}
	for i, p := range pairs {
		for _, res := range []x10.ShipResult{got, want} {
			if !wio.Equal(res.Pairs[i].Key, p.Key) || !wio.Equal(res.Pairs[i].Value, p.Value) {
				t.Fatalf("pair %d arrived changed", i)
			}
		}
	}
	if got.Pairs[0].Value != got.Pairs[550].Value {
		t.Error("a back-reference from the last chunk to the first did not arrive as an alias")
	}

	tr, servers = newTCPCluster(t, 2, x10.FrameServerOptions{FailAfterFrames: frames / 2})
	dying := x10.NewRuntime(x10.Options{Places: 2, Transport: tr, Stats: sim.NewStats()})
	defer dying.Close()
	if _, err := dying.ShipPairs(0, 1, pairs, true); !errors.Is(err, x10.ErrTransport) {
		t.Fatalf("buffer cut between two chunks: %v, want ErrTransport", err)
	}
	if n := servers[1].Served(); n != frames/2 {
		t.Errorf("dying server took %d frames, want %d", n, frames/2)
	}
}

func TestTCPTransportCloseIdempotent(t *testing.T) {
	tr, _ := newTCPCluster(t, 1, x10.FrameServerOptions{})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Ship(0, 0, []byte("x")); !errors.Is(err, x10.ErrTransport) {
		t.Fatalf("ship on closed transport: want ErrTransport, got %v", err)
	}
}
