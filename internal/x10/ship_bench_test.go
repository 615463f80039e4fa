package x10_test

import (
	"fmt"
	"strings"
	"testing"

	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/testenv"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/x10"
)

// shipBenchPairs builds n pairs with valBytes-sized distinct values —
// the shape of a shuffle frame with no dedup opportunity.
func shipBenchPairs(n, valBytes int) []wio.Pair {
	pairs := make([]wio.Pair, n)
	for i := range pairs {
		pairs[i] = wio.Pair{
			Key:   types.NewInt(int32(i)),
			Value: types.NewText(strings.Repeat(string(rune('a'+i%26)), valBytes)),
		}
	}
	return pairs
}

// TestShipPairsEncodeBufferPooled pins the ownership rule of a shipped
// buffer from the allocator's side, with every chunk that goes back to the
// pool poisoned first. A payload nothing decoded points into — values under
// wio.OwnedFloor — costs the send nothing in steady state: the buffer, its
// scratch and every chunk come from their pools and go back, and what is
// allocated is the decode side's fresh objects. A payload whose values point
// into the arrived chunks keeps those chunks: no value is copied out, and
// what the next send overwrites is never a delivered value.
func TestShipPairsEncodeBufferPooled(t *testing.T) {
	defer spill.PoisonRecycledBlocks.Store(spill.PoisonRecycledBlocks.Swap(true))
	rt, _ := newRT(2, 2)
	small := shipBenchPairs(256, wio.OwnedFloor-1) // ~68 KiB serialized, several chunks
	ship := func(pairs []wio.Pair) []wio.Pair {
		res, err := rt.ShipPairs(0, 1, pairs, false)
		if err != nil {
			t.Fatal(err)
		}
		return res.Pairs
	}
	for i := 0; i < 3; i++ {
		ship(small) // warm the pools
	}
	// Per pair the key, the value and the value's bytes; per send the result
	// slice and the pair decoder.
	if allocs, max := testing.AllocsPerRun(20, func() { ship(small) }), float64(3*len(small)+3); allocs > max && !testenv.Race {
		t.Errorf("non-aliasing ShipPairs allocs/op = %.0f, want <= %.0f: the buffer or its chunks are not pooled", allocs, max)
	}

	large := shipBenchPairs(256, 4*wio.OwnedFloor) // ~260 KiB: the ladder and then ceiling-sized chunks
	first := ship(large)
	// Per pair the key and the value, not its bytes; per send a dozen fresh
	// chunks and the few values of an underfilled last one.
	if allocs, max := testing.AllocsPerRun(5, func() { ship(large) }), float64(2*len(large)+48); allocs > max {
		t.Errorf("aliasing ShipPairs allocs/op = %.0f, want <= %.0f: values are copied out of the chunks", allocs, max)
	}
	ship(small) // reuses whatever the sends above gave back
	for i, p := range first {
		if !wio.Equal(p.Key, large[i].Key) || !wio.Equal(p.Value, large[i].Value) {
			t.Fatalf("pair %d of an earlier delivery changed under later sends: the buffer kept its chunk", i)
		}
	}
}

// benchShipPairs measures cross-place ShipPairs throughput on rt.
func benchShipPairs(b *testing.B, rt *x10.Runtime, n, valBytes int) {
	b.Helper()
	pairs := shipBenchPairs(n, valBytes)
	res, err := rt.ShipPairs(0, 1, pairs, false)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(res.Bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.ShipPairs(0, 1, pairs, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShipPairsInproc(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("pairs=%d", n), func(b *testing.B) {
			rt := x10.NewRuntime(x10.Options{Places: 2, Stats: sim.NewStats()})
			defer rt.Close()
			benchShipPairs(b, rt, n, 256)
		})
	}
}

func BenchmarkShipPairsTCPLoopback(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("pairs=%d", n), func(b *testing.B) {
			servers := make([]*x10.FrameServer, 2)
			addrs := make([]string, 2)
			for p := range servers {
				fs, err := x10.ServeFrames("127.0.0.1:0", p, x10.FrameServerOptions{})
				if err != nil {
					b.Fatal(err)
				}
				defer fs.Close()
				servers[p] = fs
				addrs[p] = fs.Addr()
			}
			tr := x10.NewTCPTransport(addrs, x10.TCPOptions{})
			rt := x10.NewRuntime(x10.Options{Places: 2, Transport: tr, Stats: sim.NewStats()})
			defer rt.Close()
			benchShipPairs(b, rt, n, 256)
		})
	}
}
