package m3r

import (
	"fmt"

	"m3r/internal/engine"
	"m3r/internal/sim"
	"m3r/internal/spill"
)

// This file is the shuffle's half of the largest-first spill policy. When a
// budgeted run cannot reserve its bytes, the pool's admission loop
// (engine.JobBudget.ReserveEvicting) asks the place's engine.ResidentIndex
// for the largest cold resident run of the same job that is strictly larger
// than the newcomer (ties toward the lower source index, then the earlier
// admission), re-spills it, and retries.
//
// Scope and safety: runs enter the index when they are admitted resident
// (map phase) and leave it when they are claimed for eviction; evictions
// only ever happen from run admission, which only runs before the shuffle
// barrier, and reducers only open merges after it — so an eviction can never
// race a takeReaders on the same run. The index is per (job, place) and evicts
// only its own job's runs: on a shared engine pool, one job's contention
// never re-spills another job's resident data. The index is closed at the
// barrier so it does not pin detached runs' pairs through the reduce phase.

// residentRun is the index key: a resident run and the partition whose lock
// guards its slot.
type residentRun struct {
	r  *sourceRun
	pi *partitionInput
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
	k, size, ok := x.resident[place].TakeLargest(min)
	if !ok {
		return 0, nil
	}
	victim, pi := k.r, k.pi
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
