// Package x10 is the runtime substrate the M3R engine runs on, substituting
// for the X10 language runtime of the paper (§5.1). It provides
//
//   - places: a fixed set of cluster nodes, each with a bounded pool of
//     worker slots (the paper's "one process per host, 8 worker threads"),
//   - finish/async structured concurrency: a job's map phase is one finish,
//     and its reduce phase starts only when that finish is joined ("no
//     reducer is allowed to run until globally all shuffle messages have
//     been sent"),
//   - a pluggable Transport whose cross-place sends pass through real
//     binary serialization with optional de-duplication, while same-place
//     sends are free aliasing — the asymmetry every M3R optimization
//     exploits.
//
// Every place lives in one OS process: the data isolation that matters for
// the paper's measurements — serialize/copy when remote, alias when local —
// is enforced by the serialization boundary rather than by address spaces.
// The transport decides what cross-place bytes pass through on the way. The
// default inproc backend loops frames back through memory. The TCP backend
// is a loopback fixture: every cross-place frame crosses a real socket to an
// in-process FrameServer and is echoed back (length-prefixed frames,
// connection reuse per place pair), which prices the wire per record and
// gives the transport-fault tests something to break. Both backends are
// byte-identical at the payload level: the same encoder output goes in, the
// same bytes come out at the destination.
package x10

import (
	"fmt"

	"m3r/internal/sim"
)

// Runtime is a fixed set of places plus the transport between them.
type Runtime struct {
	places    []*Place
	hostOf    map[string]int // host name -> place id, built once at NewRuntime
	transport Transport
	stats     *sim.Stats
	cost      *sim.CostModel
}

// Place is one simulated cluster node.
type Place struct {
	id      int
	host    string
	workers chan struct{}
}

// ID returns the place's index in [0, NumPlaces).
func (p *Place) ID() int { return p.id }

// Host returns the place's host name ("nodeN"), matching the simulated
// HDFS datanode names so block locality can be resolved.
func (p *Place) Host() string { return p.host }

// Options configures a Runtime.
type Options struct {
	// Places is the number of simulated nodes (default 1).
	Places int
	// WorkersPerPlace bounds concurrent tasks per place (default 2).
	WorkersPerPlace int
	// Transport moves cross-place frames; nil means the in-process loopback
	// backend. The runtime takes ownership: Close closes it.
	Transport Transport
	// Stats and Cost may be nil.
	Stats *sim.Stats
	Cost  *sim.CostModel
}

// NewRuntime creates a runtime with opts.Places places.
func NewRuntime(opts Options) *Runtime {
	n := opts.Places
	if n <= 0 {
		n = 1
	}
	w := opts.WorkersPerPlace
	if w <= 0 {
		w = 2
	}
	cost := opts.Cost
	if cost == nil {
		cost = sim.Zero()
	}
	tr := opts.Transport
	if tr == nil {
		tr = Inproc()
	}
	if tt, ok := tr.(*TCPTransport); ok && tt.stats == nil {
		// The TCP backend counts NET_* into the runtime's sink unless its
		// builder already bound one.
		tt.stats = opts.Stats
	}
	rt := &Runtime{
		transport: tr,
		hostOf:    make(map[string]int, n),
		stats:     opts.Stats,
		cost:      cost,
	}
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("node%d", i)
		rt.places = append(rt.places, &Place{
			id:      i,
			host:    host,
			workers: make(chan struct{}, w),
		})
		rt.hostOf[host] = i
	}
	return rt
}

// NumPlaces returns the number of places.
func (rt *Runtime) NumPlaces() int { return len(rt.places) }

// Place returns place p.
func (rt *Runtime) Place(p int) *Place { return rt.places[p] }

// PlaceOfHost resolves a host name to a place id, or -1. It runs per
// block-locality resolution on every input split, so it is a map lookup,
// not a scan over the place set.
func (rt *Runtime) PlaceOfHost(host string) int {
	if p, ok := rt.hostOf[host]; ok {
		return p
	}
	return -1
}

// Stats returns the runtime's statistics sink (may be nil).
func (rt *Runtime) Stats() *sim.Stats { return rt.stats }

// Close releases the runtime's transport (connections to frame servers, for
// the TCP backend; a no-op for inproc). Idempotent.
func (rt *Runtime) Close() error { return rt.transport.Close() }

// At runs f synchronously "at" place p, occupying one of p's worker slots.
// It models X10's `at (p) S` for computation placement: the caller blocks
// until a slot is free and f returns.
func (rt *Runtime) At(p int, f func()) {
	place := rt.places[p]
	place.workers <- struct{}{}
	defer func() { <-place.workers }()
	f()
}
