package m3r

import "m3r/internal/engine"

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
// race a takeSources on the same run. The index is per (job, place) and evicts
// only its own job's runs: on a shared engine pool, one job's contention
// never re-spills another job's resident data. The index is closed at the
// barrier so it does not pin detached runs' segments through the reduce phase.

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
	span := ctx.Begin(engine.PhaseSpill, place)
	path, err := x.spillSegment(ctx, victim.seg, victim.nrecs)
	span.End()
	if err != nil {
		return 0, err
	}
	pi.mu.Lock()
	victim.seg, victim.size, victim.spillPath = nil, 0, path
	pi.mu.Unlock()
	ctx.Cells.EvictedResidentRuns.Increment(1)
	return size, nil
}
