package x10

import (
	"fmt"
	"reflect"

	"m3r/internal/counters"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/wio"
)

// ShipResult describes one transport delivery.
type ShipResult struct {
	// Pairs are the delivered pairs; for local sends they alias the input.
	Pairs []wio.Pair
	// Bytes is the serialized size (0 for local sends).
	Bytes int64
	// DedupHits counts objects elided by the de-duplicating encoder.
	DedupHits uint64
	// Remote reports whether serialization happened.
	Remote bool
}

// ChargeShip accounts one cross-place delivery — bytes that crossed in
// frames transport frames, with dedupHits objects elided on the way — in the
// shipping task's counters, from which the task envelope feeds the engine's
// stats (counters.TaskStats), and last against the modelled network.
// ShipPairs has no task: its bytes and hits go to the stats directly.
func (rt *Runtime) ChargeShip(task *counters.Counters, bytes int64, frames int, dedupHits int64) {
	rt.stats.Add(sim.RemoteTransfers, 1)
	if task == nil {
		rt.stats.Add(sim.RemoteBytes, bytes)
		rt.stats.Add(sim.DedupHits, dedupHits)
	} else {
		task.Incr(counters.TaskGroup, counters.RemoteShuffleBytes, bytes)
		task.Incr(counters.M3RGroup, counters.DedupHits, dedupHits)
		if rt.RemoteTransport() {
			task.Incr(counters.M3RGroup, counters.NetFrames, int64(frames))
			task.Incr(counters.M3RGroup, counters.NetBytes, bytes)
		}
	}
	rt.cost.ChargeNet(rt.stats, bytes)
}

// ShipPairs moves pairs from place `from` to place `to`.
//
// Same-place sends return the input slice unchanged: no serialization, no
// copying, no cost — this is the co-location benefit of §3.2.2.1. (Whether
// the pairs are safe to alias is the engine's concern via ImmutableOutput.)
//
// Cross-place sends serialize every pair into a spill.Buffer, the one
// outbound buffer of the engines' shuffles too, ship it chunk by chunk
// through the runtime's transport, charge the modelled network, and decode
// into objects of their own, from slabs, on the far side. With dedup, a
// repeated object — the broadcast vector blocks of §3.2.2.3 — is
// transmitted once and arrives as aliases of one object. The pairs must be
// of one key class and one value class, the first pair's. Large byte bodies
// of the delivered pairs may be the arrived chunks' own memory
// (spill.Buffer.Unpack): they are the receiver's, like everything else it is
// handed, and may be kept as long as it likes, so none comes from a slab
// shared with objects that die with a job (Unpack's kept).
func (rt *Runtime) ShipPairs(from, to int, pairs []wio.Pair, dedup bool) (ShipResult, error) {
	if from == to {
		rt.stats.Add(sim.LocalPairs, int64(len(pairs)))
		return ShipResult{Pairs: pairs}, nil
	}
	b := spill.GetObjectBuffer()
	defer b.Release()
	var keyClass, valClass string
	for i, p := range pairs {
		if i == 0 {
			var err error
			if keyClass, err = wio.NameOf(p.Key); err == nil {
				valClass, err = wio.NameOf(p.Value)
			}
			if err != nil {
				return ShipResult{}, fmt.Errorf("x10: serializing for place %d: %w", to, err)
			}
		} else if reflect.TypeOf(p.Key) != reflect.TypeOf(pairs[0].Key) || reflect.TypeOf(p.Value) != reflect.TypeOf(pairs[0].Value) {
			return ShipResult{}, fmt.Errorf("x10: serializing for place %d: pair %d is a (%T, %T), not a (%s, %s)", to, i, p.Key, p.Value, keyClass, valClass)
		}
		if _, err := b.Collect(0, p.Key, p.Value, dedup); err != nil {
			return ShipResult{}, fmt.Errorf("x10: serializing for place %d: %w", to, err)
		}
	}
	n, frames, hits, err := b.Ship(1, func(piece []byte) ([]byte, error) { return rt.transport.Ship(from, to, piece) })
	if err != nil {
		return ShipResult{}, fmt.Errorf("x10: shipping to place %d: %w", to, err)
	}
	rt.ChargeShip(nil, int64(n), frames, hits)

	out := make([]wio.Pair, 0, len(pairs))
	if len(pairs) > 0 {
		if err := b.Unpack(keyClass, valClass, true, func(_ int, kv wio.Pair) { out = append(out, kv) }); err != nil {
			return ShipResult{}, fmt.Errorf("x10: deserializing at place %d: %w", to, err)
		}
	}
	return ShipResult{Pairs: out, Bytes: int64(n), DedupHits: uint64(hits), Remote: true}, nil
}
