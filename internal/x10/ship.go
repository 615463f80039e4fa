package x10

import (
	"bytes"
	"fmt"

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

// ShipPairs moves pairs from place `from` to place `to`.
//
// Same-place sends return the input slice unchanged: no serialization, no
// copying, no cost — this is the co-location benefit of §3.2.2.1. (Whether
// the pairs are safe to alias is the engine's concern via ImmutableOutput.)
//
// Cross-place sends serialize every pair with a de-duplicating encoder
// (when dedup is true), route the encoded frame through the runtime's
// transport, charge the modelled network, and decode into fresh objects on
// the far side. Repeated objects — the broadcast vector blocks of
// §3.2.2.3 — are transmitted once and arrive as aliases.
func (rt *Runtime) ShipPairs(from, to int, pairs []wio.Pair, dedup bool) (ShipResult, error) {
	if from == to {
		rt.stats.Add(sim.LocalPairs, int64(len(pairs)))
		return ShipResult{Pairs: pairs}, nil
	}
	buf := rt.shipBufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		rt.shipBufs.Put(buf)
	}()
	enc := wio.NewEncoder(buf, dedup)
	for _, p := range pairs {
		if err := enc.EncodePair(p); err != nil {
			return ShipResult{}, fmt.Errorf("x10: serializing for place %d: %w", to, err)
		}
	}
	if err := enc.Close(); err != nil {
		return ShipResult{}, err
	}
	payload, err := rt.transport.Ship(from, to, buf.Bytes())
	if err != nil {
		return ShipResult{}, fmt.Errorf("x10: shipping to place %d: %w", to, err)
	}
	n := int64(len(payload))
	rt.stats.Add(sim.RemoteBytes, n)
	rt.stats.Add(sim.RemoteTransfers, 1)
	rt.stats.Add(sim.DedupHits, int64(enc.DedupHits()))
	rt.cost.ChargeNet(rt.stats, n)

	dec := wio.NewDecoderBytes(payload)
	out := make([]wio.Pair, 0, len(pairs))
	for i := 0; i < len(pairs); i++ {
		p, err := dec.DecodePair()
		if err != nil {
			return ShipResult{}, fmt.Errorf("x10: deserializing at place %d: %w", to, err)
		}
		out = append(out, p)
	}
	return ShipResult{Pairs: out, Bytes: n, DedupHits: enc.DedupHits(), Remote: true}, nil
}
