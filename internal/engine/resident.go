package engine

import "sync"

// ResidentIndex is the largest-first eviction policy's candidate set, beside
// BudgetPool: whoever holds pool reservations for resident objects (the M3R
// shuffle's runs, its inter-job cache's blocks) indexes them here, and the
// eviction callback of JobBudget.ReserveEvicting asks TakeLargest for a
// victim. Under contention the objects that go to disk are thus the big
// ones, keeping the most small ones resident per byte of budget instead of
// penalizing whichever arrived last.
//
// Candidates are totally ordered — size descending, then rank ascending (a
// caller-defined tie-break; the shuffle passes the run's source index), then
// admission order — so a victim is a deterministic function of the arrival
// sequence, never of map iteration order. A candidate is claimed at most
// once: TakeLargest removes what it returns.
type ResidentIndex[K comparable] struct {
	mu     sync.Mutex
	seq    int64
	closed bool
	m      map[K]residentEntry
}

type residentEntry struct {
	size, rank, seq int64
}

// NewResidentIndex returns an empty, open index.
func NewResidentIndex[K comparable]() *ResidentIndex[K] {
	return &ResidentIndex[K]{m: make(map[K]residentEntry)}
}

// Add registers k as an eviction candidate holding size reserved bytes,
// replacing any earlier entry for k. It reports whether k was indexed: false
// once the index is closed.
func (ix *ResidentIndex[K]) Add(k K, size, rank int64) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return false
	}
	ix.seq++
	ix.m[k] = residentEntry{size: size, rank: rank, seq: ix.seq}
	return true
}

// Remove withdraws k, returning the size it was added with; ok is false when
// k is not a candidate (never added, already taken, or the index is closed).
func (ix *ResidentIndex[K]) Remove(k K) (size int64, ok bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	e, ok := ix.m[k]
	delete(ix.m, k)
	return e.size, ok
}

// TakeLargest claims the first candidate in the index's order whose size is
// strictly larger than min. ok is false when none qualifies: the policy never
// evicts to admit an equal-or-larger newcomer, which both bounds the
// admission loop and is the point of largest-first.
func (ix *ResidentIndex[K]) TakeLargest(min int64) (k K, size int64, ok bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var best residentEntry
	for c, e := range ix.m {
		if e.size <= min {
			continue
		}
		if !ok || e.size > best.size || (e.size == best.size &&
			(e.rank < best.rank || (e.rank == best.rank && e.seq < best.seq))) {
			k, best, ok = c, e, true
		}
	}
	if ok {
		delete(ix.m, k)
	}
	return k, best.size, ok
}

// Close drops every candidate, so the index pins none of them, and turns
// later Adds into no-ops.
func (ix *ResidentIndex[K]) Close() {
	ix.mu.Lock()
	ix.closed = true
	ix.m = nil
	ix.mu.Unlock()
}

// Len reports the current candidate count.
func (ix *ResidentIndex[K]) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.m)
}
