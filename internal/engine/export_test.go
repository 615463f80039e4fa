package engine

import "m3r/internal/wio"

// CombineArena is a combine table's arena as the pool is handed it.
type CombineArena = combineArena

// MaxArenaLen exposes maxArenaLen to the package's external tests.
const MaxArenaLen = maxArenaLen

// NewCombineTableOn is NewCombineTable on the arena a, or on a fresh one
// when a is nil, instead of one from the pool.
func NewCombineTableOn(rj *ResolvedJob, ctx *TaskContext, lc *JobLifecycle, a *CombineArena) *CombineTable {
	return newCombineTable(rj, ctx, lc, a)
}

// DrainToArena drains t as Drain does and returns the arena Drain would
// pool, instead of pooling it: nil when Drain would drop it.
func DrainToArena(t *CombineTable) ([]wio.Pair, *CombineArena, error) {
	out, err := t.drain()
	if err != nil {
		return nil, nil, err
	}
	return out, t.takeArena(), nil
}

// Pins counts what the arena's arrays still hold over their whole
// capacity: entry keys, node values and nonzero slots, next links and
// chain indexes included. A pooled arena must hold none.
func (a *combineArena) Pins() int {
	n := 0
	for _, e := range a.entries[:cap(a.entries)] {
		if e != (combineEntry{}) {
			n++
		}
	}
	for _, v := range a.nodes[:cap(a.nodes)] {
		if v != (valueNode{}) {
			n++
		}
	}
	for _, s := range a.slots {
		if s != 0 {
			n++
		}
	}
	return n
}

// Lens returns the arena's entry and node lengths and capacities.
func (a *combineArena) Lens() (entries, nodes, entriesCap, nodesCap int) {
	return len(a.entries), len(a.nodes), cap(a.entries), cap(a.nodes)
}

// Replays reports how many leaf-to-root paths m's tournament has replayed.
func (m *RawMerge) Replays() int { return m.m.t.replays }
