package m3r

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
	"m3r/internal/x10"
)

// tamperTransport is the in-process loopback with a hook on what arrives:
// frame is the call'th frame shipped through it, and what the hook returns is
// what the destination sees.
type tamperTransport struct {
	calls  int
	tamper func(call int, frame []byte) []byte
}

func (tr *tamperTransport) Ship(from, to int, frame []byte) ([]byte, error) {
	tr.calls++
	return tr.tamper(tr.calls, frame), nil
}
func (*tamperTransport) Name() string { return "inproc" }
func (*tamperTransport) Close() error { return nil }

// newRemoteExec builds the job state of an unbudgeted two-place WordCount
// over tr, without running it: partition 1 lives at place 1.
func newRemoteExec(t *testing.T, tr x10.Transport) *jobExec {
	t.Helper()
	e := newFaultEngineOver(t, 2, tr)
	job := wordcount.NewJob("/data/t", "/out/remote", 2, false)
	rj, err := engine.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	lc := engine.NewJobLifecycle()
	t.Cleanup(lc.Stop)
	x := &jobExec{e: e, Job: &engine.Job{ID: "job_test_0001", Conf: job, Resolved: rj, Lifecycle: lc, Counters: counters.New()}, dedup: true}
	for q := 0; q < rj.NumReducers; q++ {
		x.parts = append(x.parts, &partitionInput{x: x, place: e.PlaceOfPartition(q)})
	}
	return x
}

// remoteCollector is the collector of one map task at place 0 of a
// newRemoteExec job, with n pairs delivered to partition 1: one remote
// stream, several chunks long at n = 1000.
func remoteCollector(t *testing.T, tr x10.Transport, n int) (*shuffleCollector, *jobExec) {
	t.Helper()
	x := newRemoteExec(t, tr)
	sc := x.newShuffleCollector(&mapAssignment{place: 0}, engine.NewTaskContext(x.Conf, "task", nil))
	for i := 0; i < n; i++ {
		if err := sc.deliver(1, types.NewText(fmt.Sprintf("word%04d-%s", i, strings.Repeat("x", 80))), types.NewInt(int32(i)), true); err != nil {
			t.Fatal(err)
		}
	}
	return sc, x
}

// TestUnbudgetedShuffleRemembersEveryObject pins the identity rule of the
// unbudgeted remote shuffle, whose destination decodes objects: with
// m3r.shuffle.dedup on, the encoder remembers every object of an immutable
// map side, however small, so one key object delivered n times crosses once
// and then as n−1 back-references, and the destination decodes all n as one
// aliased object. Forgetting objects under some size would decode a fresh
// key per pair — an allocation per record on shuffle_remote, whose mapper
// emits one IntWritable key object for every remote pair. With dedup off,
// every pair brings its own key.
func TestUnbudgetedShuffleRemembersEveryObject(t *testing.T) {
	const n = 100
	for _, dedup := range []bool{true, false} {
		t.Run(fmt.Sprintf("dedup=%v", dedup), func(t *testing.T) {
			x := newRemoteExec(t, &tamperTransport{tamper: func(_ int, f []byte) []byte { return f }})
			x.dedup = dedup
			sc := x.newShuffleCollector(&mapAssignment{place: 0}, engine.NewTaskContext(x.Conf, "task", nil))
			key := types.NewText("k")
			for i := 0; i < n; i++ {
				if err := sc.deliver(1, key, types.NewInt(int32(i)), true); err != nil {
					t.Fatal(err)
				}
			}
			if err := sc.flush(); err != nil {
				t.Fatal(err)
			}
			pairs := x.parts[1].runs[0].pairs
			if len(pairs) != n {
				t.Fatalf("%d pairs installed, want %d", len(pairs), n)
			}
			keys := map[wio.Writable]bool{}
			for _, p := range pairs {
				keys[p.Key] = true
			}
			hits := sc.ctx.Counters.Value(counters.M3RGroup, counters.DedupHits)
			wantKeys, wantHits := 1, int64(n-1)
			if !dedup {
				wantKeys, wantHits = n, 0
			}
			if len(keys) != wantKeys || hits != wantHits {
				t.Fatalf("%d distinct key objects and %d DEDUP_HITS, want %d and %d", len(keys), hits, wantKeys, wantHits)
			}
		})
	}
}

// TestShuffleDecodeChecksTheEndOfTheStream: the decode loop at the
// destination takes exactly the pairs the map task counted and then requires
// the stream to end — marker next, nothing after it. Each way a frame can
// disagree with the count is its own error, the task's streams go back to
// the pool, and nothing of the frame is installed.
func TestShuffleDecodeChecksTheEndOfTheStream(t *testing.T) {
	const pairs = 1000
	var chunks int // of the untampered stream
	t.Run("intact", func(t *testing.T) {
		tr := &tamperTransport{tamper: func(_ int, f []byte) []byte { return f }}
		sc, x := remoteCollector(t, tr, pairs)
		if err := sc.flush(); err != nil {
			t.Fatal(err)
		}
		if chunks = tr.calls; chunks < 3 {
			t.Fatalf("stream crossed in %d chunks; the cases below need several", chunks)
		}
		if got := len(x.parts[1].runs[0].pairs); got != pairs {
			t.Fatalf("%d pairs installed, want %d", got, pairs)
		}
	})
	for _, tc := range []struct {
		name   string
		tamper func(call int, frame []byte) []byte
		want   string
	}{
		{"truncated chunk list", func(call int, f []byte) []byte {
			if call == chunks {
				return nil // the last chunk never arrives
			}
			return f
		}, fmt.Sprintf("of %d: stream ends after %d chunks", pairs, chunks)},
		{"chunk cut short", func(call int, f []byte) []byte {
			if call == 2 {
				return f[:len(f)-3]
			}
			return f
		}, "unexpected EOF"},
		{"extra record", func(call int, f []byte) []byte {
			if call == chunks {
				// The chunk's records once more where the marker was, then
				// the marker: one stream, more pairs than were counted.
				return append(append([]byte(nil), f[:len(f)-1]...), f...)
			}
			return f
		}, fmt.Sprintf("after %d pairs: wio: tag 1 where the end-of-stream marker belongs", pairs)},
		{"missing marker", func(call int, f []byte) []byte {
			if call == chunks {
				return f[:len(f)-1]
			}
			return f
		}, fmt.Sprintf("after %d pairs: no end-of-stream marker", pairs)},
		{"trailing bytes", func(call int, f []byte) []byte {
			if call == chunks {
				return append(append([]byte(nil), f...), 0, 0)
			}
			return f
		}, "2 bytes and 0 chunks follow the end-of-stream marker"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bufBase := encodeBufsOut.Load()
			sc, x := remoteCollector(t, &tamperTransport{tamper: tc.tamper}, pairs)
			err := sc.flush()
			if err == nil || !strings.HasPrefix(err.Error(), "m3r: shuffle decode at place 1: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("flush = %v, want a shuffle decode error at place 1 saying %q", err, tc.want)
			}
			sc.abort()
			if got := encodeBufsOut.Load(); got != bufBase {
				t.Errorf("streams out %d, baseline %d", got, bufBase)
			}
			if n := len(x.parts[1].runs); n != 0 {
				t.Errorf("%d runs installed from a corrupt stream", n)
			}
		})
	}
}

// TestShuffleStreamOverDyingFrameServer ships one destination's stream, one
// frame per chunk, to a frame server that dies between two of them: the task
// fails with the transport's error, the stream is back in its pool, and once
// engine and servers are closed no goroutine of theirs is left.
func TestShuffleStreamOverDyingFrameServer(t *testing.T) {
	var frames int64
	t.Run("live", func(t *testing.T) {
		sc, x := remoteCollector(t, tcpTransport(t, 2, x10.FrameServerOptions{}), 1000)
		if err := sc.flush(); err != nil {
			t.Fatal(err)
		}
		frames = sc.ctx.Counters.Value(counters.M3RGroup, counters.NetFrames)
		if frames < 3 || len(x.parts[1].runs[0].pairs) != 1000 {
			t.Fatalf("%d frames, %d pairs installed", frames, len(x.parts[1].runs[0].pairs))
		}
	})
	goroutines := runtime.NumGoroutine()
	t.Run("dying", func(t *testing.T) {
		bufBase := encodeBufsOut.Load()
		sc, x := remoteCollector(t, tcpTransport(t, 2, x10.FrameServerOptions{FailAfterFrames: frames - 1}), 1000)
		if err := sc.flush(); !errors.Is(err, x10.ErrTransport) {
			t.Fatalf("server dead before the last chunk: %v, want ErrTransport", err)
		}
		sc.abort()
		if got := encodeBufsOut.Load(); got != bufBase {
			t.Errorf("streams out %d, baseline %d", got, bufBase)
		}
		if n := len(x.parts[1].runs); n != 0 {
			t.Errorf("%d runs installed from half a stream", n)
		}
	})
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the failed ship, %d before it", n, goroutines)
	}
}

// TestShuffleValuesOwnTheirChunks is the hand-off seen from the engine: the
// values a destination decoded out of a stream's chunks stay what they were
// while later tasks take streams and chunks from the same pools and give
// them back overwritten.
func TestShuffleValuesOwnTheirChunks(t *testing.T) {
	x10.PoisonReleasedChunks.Store(true)
	defer x10.PoisonReleasedChunks.Store(false)
	body := func(i, n int) []byte { return []byte(strings.Repeat(string(rune('a'+i%26)), n)) }
	sizes := []int{1, wio.OwnedFloor - 1, wio.OwnedFloor, 2048, 300 << 10}

	x := newRemoteExec(t, nil)
	for task := 0; task < 3; task++ {
		sc := x.newShuffleCollector(&mapAssignment{place: 0, index: task}, engine.NewTaskContext(x.Conf, "task", nil))
		for i := 0; i < 60; i++ {
			v := types.NewBytes(body(task+i, sizes[i%len(sizes)]))
			if err := sc.deliver(1, types.NewText(fmt.Sprintf("%04d", i)), v, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := sc.flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, run := range x.parts[1].runs {
		for _, p := range run.pairs {
			var i int
			fmt.Sscanf(p.Key.(*types.Text).String(), "%d", &i)
			if want := body(run.src+i, sizes[i%len(sizes)]); string(p.Value.(*types.BytesWritable).B) != string(want) {
				t.Fatalf("task %d pair %d: a %d-byte value changed after its stream was released", run.src, i, len(want))
			}
		}
	}
}
