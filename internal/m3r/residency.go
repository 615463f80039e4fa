package m3r

import (
	"fmt"
	"sync"

	"m3r/internal/engine"
	"m3r/internal/sim"
	"m3r/internal/spill"
)

// This file implements the largest-first spill policy's resident-run index.
// When a budgeted run cannot reserve its bytes, the pool's admission loop
// (engine.JobBudget.ReserveEvicting) asks the place's residentSet for the
// largest cold resident run of the same job that is strictly larger than
// the newcomer, re-spills it, and retries — so under contention the runs
// that go to disk are the big ones, keeping the maximum number of small
// runs resident per byte of budget instead of penalizing whichever run
// arrived last.
//
// Scope and safety: runs enter the index when they are admitted resident
// (map phase) and leave it when they are claimed for eviction; evictions
// only ever happen from run admission, which only runs before the shuffle
// barrier, and reducers only open merges after it — so an eviction can never
// race a takeReaders on the same run. The index is per (job, place) and evicts
// only its own job's runs: on a shared engine pool, one job's contention
// never re-spills another job's resident data. The index is dropped at the
// barrier so it does not pin detached runs' pairs through the reduce phase.

// residentSet indexes one place's budgeted resident runs for eviction.
type residentSet struct {
	mu   sync.Mutex
	seq  int64
	runs map[*sourceRun]residentEntry
}

// residentEntry locates one candidate: its partition, and its admission
// sequence number — the total tie-break takeLargest needs (src alone is not
// total: one map task installs equal-sized runs into several partitions at
// the same place).
type residentEntry struct {
	pi    *partitionInput
	order int64
}

func newResidentSet() *residentSet {
	return &residentSet{runs: make(map[*sourceRun]residentEntry)}
}

// add registers a freshly admitted resident run as an eviction candidate.
func (rs *residentSet) add(r *sourceRun, pi *partitionInput) {
	rs.mu.Lock()
	rs.seq++
	rs.runs[r] = residentEntry{pi: pi, order: rs.seq}
	rs.mu.Unlock()
}

// takeLargest claims the largest resident run strictly larger than min,
// removing it from the index so concurrent contenders cannot evict the same
// run twice. Ties break toward the lower source index, then the earlier
// admission — a total order, so the choice is a deterministic function of
// the arrival sequence, never of map iteration order. Returns nils when no
// run qualifies — the policy never evicts a run to admit an equal-or-larger
// one, which both bounds the admission loop and is the point of
// largest-first.
func (rs *residentSet) takeLargest(min int64) (*sourceRun, *partitionInput) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var best *sourceRun
	var bestE residentEntry
	for r, e := range rs.runs {
		if r.size <= min {
			continue
		}
		if best == nil || r.size > best.size ||
			(r.size == best.size && (r.src < best.src || (r.src == best.src && e.order < bestE.order))) {
			best, bestE = r, e
		}
	}
	if best == nil {
		return nil, nil
	}
	delete(rs.runs, best)
	return best, bestE.pi
}

// clear drops every candidate (the shuffle barrier passed: no more
// contention, and the index must not pin run memory through reduce).
func (rs *residentSet) clear() {
	rs.mu.Lock()
	rs.runs = nil
	rs.mu.Unlock()
}

// size reports the current candidate count (tests).
func (rs *residentSet) size() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.runs)
}

// evictLargest is the eviction callback behind the pool's admission loop:
// re-spill the largest cold resident run at place that is strictly larger
// than min, returning the size of the reservation it frees (0 when no run
// qualifies). The victim's reservation is NOT released here — the pool
// folds the release into the retry atomically (releaseAndReserve), so a
// concurrent job sharing the pool cannot steal the freed bytes between the
// eviction and the admission it paid for. The victim's slot flips from
// resident to spilled in place — same src, same partition — so the merge's
// source-order tie-break, and with it the byte-identical-output guarantee,
// is untouched; the only observable differences are the freed budget and
// the spill/eviction counters.
func (x *jobExec) evictLargest(ctx *engine.TaskContext, place int, min int64) (int64, error) {
	victim, pi := x.resident[place].takeLargest(min)
	if victim == nil {
		return 0, nil
	}
	// Re-encode the victim (its collect-time encoding was dropped once the
	// size was known; re-paying it here keeps the uncontended path lean).
	recs, keyClass, valClass, _, err := spill.MarshalRun(victim.pairs)
	if err != nil {
		// Cannot happen for a run that encoded at admission; fail loudly
		// rather than silently dropping the eviction candidate.
		return 0, fmt.Errorf("m3r: re-encoding resident run for eviction: %w", err)
	}
	enc, err := spill.EncodeRun(recs, x.codec)
	if err != nil {
		return 0, err
	}
	path, err := x.spillPath()
	if err != nil {
		return 0, err
	}
	if _, err := spillWriteRun(path, enc); err != nil {
		return 0, err
	}
	size := victim.size
	pi.mu.Lock()
	victim.pairs = nil
	victim.size = 0
	victim.spill = &spilledRun{path: path, keyClass: keyClass, valClass: valClass}
	pi.mu.Unlock()
	x.chargeSpill(ctx, enc, len(recs))
	ctx.Cells.EvictedResidentRuns.Increment(1)
	x.e.stats.Add(sim.EvictedRuns, 1)
	return size, nil
}
