package x10

import (
	"fmt"

	"m3r/internal/counters"
	"m3r/internal/sim"
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
// Cross-place sends serialize every pair with a de-duplicating encoder
// (when dedup is true), route the encoded frame through the runtime's
// transport, charge the modelled network, and decode into objects of their
// own, from slabs, on the far side. Repeated objects — the broadcast vector blocks of
// §3.2.2.3 — are transmitted once and arrive as aliases. Large byte bodies
// of the delivered pairs may be the arrived frames' own memory (OutStream):
// they are the receiver's, like everything else it is handed.
func (rt *Runtime) ShipPairs(from, to int, pairs []wio.Pair, dedup bool) (ShipResult, error) {
	if from == to {
		rt.stats.Add(sim.LocalPairs, int64(len(pairs)))
		return ShipResult{Pairs: pairs}, nil
	}
	s := GetOutStream(dedup)
	defer s.Release()
	enc := s.Encoder()
	for _, p := range pairs {
		if err := enc.EncodePair(p); err != nil {
			return ShipResult{}, fmt.Errorf("x10: serializing for place %d: %w", to, err)
		}
		s.EndRecord()
	}
	n, _, err := rt.ShipStream(from, to, s)
	if err != nil {
		return ShipResult{}, fmt.Errorf("x10: shipping to place %d: %w", to, err)
	}
	rt.ChargeShip(nil, n, 0, int64(enc.DedupHits()))

	out := make([]wio.Pair, 0, len(pairs))
	for i := range pairs {
		var p wio.Pair
		dec, err := s.NextRecord()
		if err == nil {
			dec.Expect(len(pairs) - i)
			p, err = dec.DecodePair()
		}
		if err != nil {
			return ShipResult{}, fmt.Errorf("x10: deserializing at place %d: %w", to, err)
		}
		out = append(out, p)
	}
	// Exactly the pairs sent, then the end of the stream and nothing more.
	if err := s.End(); err != nil {
		return ShipResult{}, fmt.Errorf("x10: deserializing at place %d: %w", to, err)
	}
	return ShipResult{Pairs: out, Bytes: n, DedupHits: enc.DedupHits(), Remote: true}, nil
}
