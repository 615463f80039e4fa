package m3r

import (
	"sync"

	"m3r/internal/wio"
)

// pairArena backs the small sorted runs an unbudgeted job's map tasks make:
// a run is carved from a chunk of pairs the job allocates, so it costs no
// allocation of its own, and a run that is the chunk's last carve grows in
// place. A run larger than arenaMax pairs is allocated on its own, so a
// large shuffle's runs keep exactly their length. Chunks are small and all one size, so what the last one leaves
// unused is at most arenaChunk pairs a job. The arena is the job's: nothing
// in it is recycled, and a chunk dies with the last run cut from it, at the
// latest when the job's reducers let go of their runs.
type pairArena struct {
	mu  sync.Mutex
	buf []wio.Pair // the current chunk; len(buf) pairs are carved
}

const (
	arenaChunk = 16 // pairs: 512 bytes on a 64-bit machine
	arenaMax   = 8  // the largest run an arena backs
)

// make returns an empty run with room for n pairs.
func (a *pairArena) make(n int) []wio.Pair {
	if n > arenaMax {
		return make([]wio.Pair, 0, n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.carveLocked(n)
}

// carveLocked cuts n pairs from the chunk, starting a chunk when the current
// one has too few left. The caller holds mu.
func (a *pairArena) carveLocked(n int) []wio.Pair {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]wio.Pair, 0, arenaChunk)
	}
	i := len(a.buf)
	a.buf = a.buf[:i+n]
	return a.buf[i : i : i+n]
}

// append appends p to run, a run the arena made (or nil), growing it in
// place when it is the chunk's last carve and there is room after it, and
// otherwise moving it to a carve twice its size.
func (a *pairArena) append(run []wio.Pair, p wio.Pair) []wio.Pair {
	if len(run) < cap(run) || cap(run) >= arenaMax {
		return append(run, p)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if c, u := cap(run), len(a.buf); c > 0 && u < cap(a.buf) && &run[:c][c-1] == &a.buf[u-1] {
		// The run ends where the chunk's free pairs begin.
		start := u - c
		grow := min(c, cap(a.buf)-u)
		a.buf = a.buf[:u+grow]
		return append(a.buf[start:start+len(run):u+grow], p)
	}
	grown := a.carveLocked(min(max(2*cap(run), 4), arenaMax))
	return append(append(grown, run...), p)
}
