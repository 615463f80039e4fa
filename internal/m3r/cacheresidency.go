package m3r

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"m3r/internal/engine"
	"m3r/internal/kvstore"
	"m3r/internal/sim"
	"m3r/internal/spill"
)

// This file implements the budgeted, tiered inter-job cache: the engine's
// key/value cache (paper §3.2) is the one large memory consumer that lives
// across jobs, so with a cache budget configured every committed cache
// block reserves its byte footprint against the place's engine.BudgetPool
// under the cache-scoped tag — coexisting with the shuffle's job-tagged
// reservations when the engine is pooled. Under contention, cold entries
// spill largest-first to disk in the compressed self-describing spill
// format (reusing the shuffle's policy shape, see residency.go), and a
// spilled entry readmits transparently the next time a job reads it.
// Iterative sequences — PageRank, matvec, SysML loops — thus run
// arbitrarily long at a fixed memory ceiling with byte-identical output.

// cacheTag is the pool tag cache reservations are charged under. Unlike
// job tags it is engine-lifetime: entries outlive the jobs that wrote them,
// so the tag's held bytes drain only as entries are dropped, spilled, or
// the engine closes — never at a job boundary.
const cacheTag = "m3r-cache"

// cacheGovernor is the kvstore.Residency implementation behind the budgeted
// cache: it owns the admission/eviction/readmit policy and the cache spill
// directory, and keeps the ledger invariant that the cache tag's held bytes
// always equal the sum of the resident accounted blocks' sizes.
type cacheGovernor struct {
	stats   *sim.Stats
	store   *kvstore.Store
	budgets []*engine.JobBudget // per place, tag=cacheTag
	codec   spill.Codec

	dirMu sync.Mutex
	dir   string
	seq   atomic.Int64

	// mu makes moving a block between idx and claimed one step. idx holds,
	// per place, every resident accounted block; claimed holds the blocks an
	// in-flight eviction has taken out of idx, mapped to whether the block
	// was freed meanwhile — the free then leaves the release to the evictor.
	mu      sync.Mutex
	idx     []*engine.ResidentIndex[kvstore.BlockInfo]
	claimed map[kvstore.BlockInfo]bool

	resident   atomic.Int64 // bytes of resident accounted blocks
	spilled    atomic.Int64 // entries moved to disk (evictions + overflow)
	readmitted atomic.Int64 // entries promoted back to memory
}

func newCacheGovernor(stats *sim.Stats, store *kvstore.Store, budgets []*engine.JobBudget, codec spill.Codec) *cacheGovernor {
	g := &cacheGovernor{
		stats:   stats,
		store:   store,
		budgets: budgets,
		codec:   codec,
		idx:     make([]*engine.ResidentIndex[kvstore.BlockInfo], len(budgets)),
		claimed: make(map[kvstore.BlockInfo]bool),
	}
	for p := range g.idx {
		g.idx[p] = engine.NewResidentIndex[kvstore.BlockInfo]()
	}
	return g
}

// BlockCommitted implements kvstore.Residency: pool admission for a freshly
// committed cache block. Under contention the largest-first policy spills
// cold resident entries strictly larger than the newcomer; a block the pool
// still cannot admit goes to disk itself, cold from birth.
func (g *cacheGovernor) BlockCommitted(info kvstore.BlockInfo, size int64) error {
	jb := g.budgets[info.Place]
	admitted, _, err := jb.ReserveEvicting(size, func(min int64) (int64, error) {
		return g.evictOne(info.Place, min)
	})
	if err != nil {
		return err
	}
	if admitted {
		g.register(info, size)
		return nil
	}
	path, err := g.spillPath()
	if err != nil {
		return err
	}
	n, err := g.store.SpillBlock(info, path, g.codec)
	if err != nil {
		return err
	}
	if n > 0 {
		g.noteSpilled()
	}
	return nil
}

// BlockFreed implements kvstore.Residency: a block left the store. Resident
// accounted blocks hand their reservation back; a block claimed by an
// in-flight eviction defers the release to the evictor (exactly one owner
// per reservation, so the ledger can never double-release).
func (g *cacheGovernor) BlockFreed(info kvstore.BlockInfo, size int64, wasResident bool) {
	if !wasResident {
		return // spilled entries hold no reservation
	}
	g.mu.Lock()
	held, indexed := g.idx[info.Place].Remove(info)
	if _, ok := g.claimed[info]; ok {
		g.claimed[info] = true
	}
	g.mu.Unlock()
	// Neither indexed nor claimed: the eviction that claimed it already
	// settled the reservation (or the block was never admitted).
	if indexed {
		g.budgets[info.Place].Release(held)
		g.noteResident(-held)
	}
}

// RequestReadmit implements kvstore.Residency: a spilled block may re-enter
// memory when its bytes fit the current budget — a plain reservation: a read
// never evicts other entries to make room.
func (g *cacheGovernor) RequestReadmit(info kvstore.BlockInfo, size int64) bool {
	return g.budgets[info.Place].Reserve(size)
}

// ReadmitCommit implements kvstore.Residency: the block is resident again.
func (g *cacheGovernor) ReadmitCommit(info kvstore.BlockInfo, size int64) {
	g.register(info, size)
	g.readmitted.Add(1)
	g.stats.Add(sim.CacheReadmittedEntries, 1)
}

// ReadmitAbort implements kvstore.Residency: the reinstatement did not
// happen; return the transferred reservation.
func (g *cacheGovernor) ReadmitAbort(info kvstore.BlockInfo, size int64) {
	g.budgets[info.Place].Release(size)
}

// register indexes a newly resident accounted block as an eviction
// candidate (a no-op once the governor closed underneath a straggling
// commit).
func (g *cacheGovernor) register(info kvstore.BlockInfo, size int64) {
	if g.idx[info.Place].Add(info, size, 0) {
		g.noteResident(size)
	}
}

// evictOne is the eviction callback behind the pool's admission loop:
// claim the largest resident cache block at place strictly larger than min,
// spill it, and return the reservation size it frees (0 when no block
// qualifies). As with the shuffle's evictLargest, the reservation is NOT
// released here — the pool folds the release into the retry atomically —
// and ties break toward the earlier admission so the choice is a
// deterministic function of arrival order, never of map iteration.
func (g *cacheGovernor) evictOne(place int, min int64) (int64, error) {
	g.mu.Lock()
	info, size, ok := g.idx[place].TakeLargest(min)
	if !ok {
		g.mu.Unlock()
		return 0, nil
	}
	g.claimed[info] = false
	g.mu.Unlock()

	path, err := g.spillPath()
	var n int64
	if err == nil {
		n, err = g.store.SpillBlock(info, path, g.codec)
	}

	g.mu.Lock()
	freed := g.claimed[info]
	delete(g.claimed, info)
	if err != nil && !freed {
		// Spill write failed and the block is still resident: restore it as
		// a candidate and surface the error.
		g.idx[place].Add(info, size, 0)
		g.mu.Unlock()
		return 0, err
	}
	g.mu.Unlock()
	g.noteResident(-size)
	if err != nil {
		// The block was freed while the spill write failed: the free
		// deferred the release to us, and there is nothing left to evict.
		g.budgets[place].Release(size)
		return 0, err
	}
	if n > 0 {
		g.noteSpilled()
	}
	// n == 0 means the block was freed concurrently: its reservation is
	// still held (the free deferred it here) and funds the retry the same
	// way an eviction's would.
	return size, nil
}

func (g *cacheGovernor) noteResident(delta int64) {
	g.resident.Add(delta)
	g.stats.Add(sim.CacheResidentBytes, delta)
}

func (g *cacheGovernor) noteSpilled() {
	g.spilled.Add(1)
	g.stats.Add(sim.CacheSpilledEntries, 1)
}

// spillPath returns a fresh file path for one spilled cache block, creating
// the engine's cache spill directory on first use.
func (g *cacheGovernor) spillPath() (string, error) {
	g.dirMu.Lock()
	defer g.dirMu.Unlock()
	if g.dir == "" {
		d, err := os.MkdirTemp("", "m3r-cache-")
		if err != nil {
			return "", err
		}
		g.dir = d
	}
	return filepath.Join(g.dir, fmt.Sprintf("blk_%06d", g.seq.Add(1))), nil
}

// heldBytes sums the cache tag's pool reservations across places. At
// quiescence it equals residentBytes — the ledger invariant the
// accounting tests pin after every job, success and failure alike.
func (g *cacheGovernor) heldBytes() int64 {
	var held int64
	for _, jb := range g.budgets {
		held += jb.Held()
	}
	return held
}

func (g *cacheGovernor) residentBytes() int64   { return g.resident.Load() }
func (g *cacheGovernor) spilledCount() int64    { return g.spilled.Load() }
func (g *cacheGovernor) readmittedCount() int64 { return g.readmitted.Load() }

// close tears the governor down at engine close: every cache reservation
// drains from the pools and the spill directory goes. Entries' in-memory
// data dies with the store; nothing readmits after this.
func (g *cacheGovernor) close() {
	for _, jb := range g.budgets {
		jb.Drain()
	}
	for _, ix := range g.idx {
		ix.Close()
	}
	g.dirMu.Lock()
	if g.dir != "" {
		os.RemoveAll(g.dir)
		g.dir = ""
	}
	g.dirMu.Unlock()
}
