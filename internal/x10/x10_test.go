package x10_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m3r/internal/sim"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/x10"
)

func newRT(places, workers int) (*x10.Runtime, *sim.Stats) {
	stats := sim.NewStats()
	rt := x10.NewRuntime(x10.Options{
		Places:          places,
		WorkersPerPlace: workers,
		Stats:           stats,
		Cost:            sim.Zero(),
	})
	return rt, stats
}

func TestRuntimeBasics(t *testing.T) {
	rt, _ := newRT(4, 2)
	if rt.NumPlaces() != 4 {
		t.Fatal("places")
	}
	if rt.Place(2).Host() != "node2" || rt.Place(2).ID() != 2 {
		t.Error("place identity")
	}
	if rt.PlaceOfHost("node3") != 3 || rt.PlaceOfHost("unknown") != -1 {
		t.Error("PlaceOfHost")
	}
}

func TestAtWorkerLimit(t *testing.T) {
	rt, _ := newRT(1, 2)
	var cur, max atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.At(0, func() {
				n := cur.Add(1)
				for {
					m := max.Load()
					if n <= m || max.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				cur.Add(-1)
			})
		}()
	}
	wg.Wait()
	if max.Load() > 2 {
		t.Errorf("worker limit exceeded: %d concurrent", max.Load())
	}
}

// task is a function as an x10.Task.
type task func() error

func (f task) Run() error { return f() }

func TestFinishCollectsErrorsAndPanics(t *testing.T) {
	fin := x10.NewFinish()
	boom := errors.New("boom")
	fin.AsyncTask(task(func() error { return nil }))
	fin.AsyncTask(task(func() error { return boom }))
	if err := fin.Wait(); !errors.Is(err, boom) {
		t.Errorf("got %v", err)
	}
	fin2 := x10.NewFinish()
	fin2.AsyncTask(task(func() error { panic("ouch") }))
	if err := fin2.Wait(); err == nil {
		t.Error("panic should surface as error")
	}
}

func TestShipPairsLocalAliases(t *testing.T) {
	rt, stats := newRT(2, 1)
	k, v := types.NewInt(1), types.NewText("x")
	pairs := []wio.Pair{{Key: k, Value: v}}
	res, err := rt.ShipPairs(0, 0, pairs, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Remote || res.Bytes != 0 {
		t.Error("local ship must be free")
	}
	if res.Pairs[0].Key != wio.Writable(k) {
		t.Error("local ship must alias")
	}
	if stats.Get(sim.LocalPairs) != 1 {
		t.Error("local pairs not counted")
	}
}

func TestShipPairsRemoteCopies(t *testing.T) {
	rt, stats := newRT(2, 1)
	k, v := types.NewInt(1), types.NewText("x")
	pairs := []wio.Pair{{Key: k, Value: v}}
	res, err := rt.ShipPairs(0, 1, pairs, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Remote || res.Bytes == 0 {
		t.Error("remote ship must serialize")
	}
	if res.Pairs[0].Key == wio.Writable(k) {
		t.Error("remote ship must produce fresh objects")
	}
	if !wio.Equal(res.Pairs[0].Key, k) || !wio.Equal(res.Pairs[0].Value, v) {
		t.Error("remote ship must preserve values")
	}
	if stats.Get(sim.RemoteBytes) == 0 || stats.Get(sim.RemoteTransfers) != 1 {
		t.Error("remote stats not counted")
	}
}

// TestShipPairsDedup reproduces §3.2.2.3: the same value shipped to k
// co-located reducers crosses once and arrives as aliases.
func TestShipPairsDedup(t *testing.T) {
	rt, stats := newRT(2, 1)
	broadcast := types.NewText("big broadcast value ........................")
	var pairs []wio.Pair
	for i := 0; i < 10; i++ {
		pairs = append(pairs, wio.Pair{Key: types.NewInt(int32(i)), Value: broadcast})
	}
	res, err := rt.ShipPairs(0, 1, pairs, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.DedupHits != 9 {
		t.Errorf("dedup hits: %d", res.DedupHits)
	}
	for i := 1; i < 10; i++ {
		if res.Pairs[i].Value != res.Pairs[0].Value {
			t.Fatal("deduped values must alias on arrival")
		}
	}
	withDedup := res.Bytes

	stats.Reset()
	res2, err := rt.ShipPairs(0, 1, pairs, false)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Bytes <= withDedup {
		t.Errorf("dedup should shrink the stream: %d vs %d", withDedup, res2.Bytes)
	}
	if res2.Pairs[1].Value == res2.Pairs[0].Value {
		t.Error("without dedup, values must not alias")
	}
}

// TestShipPairsOneClass: a cross-place send is of one key class and one
// value class, the first pair's, as a shuffle buffer's bytes are; a pair of
// another class, or a nil writable, fails the send before anything crosses.
func TestShipPairsOneClass(t *testing.T) {
	rt, stats := newRT(2, 1)
	one := wio.Pair{Key: types.NewInt(1), Value: types.NewText("x")}
	for name, pairs := range map[string][]wio.Pair{
		"other value class": {one, {Key: types.NewInt(2), Value: types.NewLong(3)}},
		"other key class":   {one, {Key: types.NewText("k"), Value: types.NewText("y")}},
		"nil value":         {one, {Key: types.NewInt(2)}},
		"nil first key":     {{Value: types.NewText("x")}, one},
	} {
		if _, err := rt.ShipPairs(0, 1, pairs, true); err == nil {
			t.Errorf("%s: the send succeeded", name)
		}
	}
	if n := stats.Get(sim.RemoteTransfers); n != 0 {
		t.Errorf("%d transfers charged for failed sends", n)
	}
}

func TestCostModelAccounting(t *testing.T) {
	stats := sim.NewStats()
	cost := &sim.CostModel{
		JVMStartup:     time.Millisecond,
		Heartbeat:      time.Millisecond,
		NetLatency:     time.Millisecond,
		NetBytesPerSec: 1 << 20,
		Sleep:          false, // account only
	}
	cost.ChargeJVMStart(stats)
	cost.ChargeHeartbeat(stats)
	cost.ChargeNet(stats, 1<<20)
	if stats.Get(sim.JVMStartNs) != int64(time.Millisecond) {
		t.Error("jvm charge")
	}
	if stats.Get(sim.HeartbeatNs) != int64(time.Millisecond) {
		t.Error("heartbeat charge")
	}
	// 1 MiB at 1 MiB/s = 1s plus latency.
	if got := stats.Get(sim.NetDelayNs); got < int64(time.Second) {
		t.Errorf("net charge: %d", got)
	}
	if stats.Get(sim.ModeledDelayNs) == 0 {
		t.Error("total modeled delay")
	}
	snap := stats.Snapshot()
	if len(snap) == 0 {
		t.Error("snapshot empty")
	}
	stats.Reset()
	if stats.Get(sim.JVMStartNs) != 0 {
		t.Error("reset")
	}
}
