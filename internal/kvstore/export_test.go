package kvstore

import "fmt"

// MetaPlace exposes metaPlace to the package's external tests.
func (s *Store) MetaPlace(path string) int { return s.metaPlace(path) }

// HeldLocks returns how many entry locks are held across every table.
func (s *Store) HeldLocks() int {
	n := 0
	for _, t := range s.meta {
		t.mu.Lock()
		n += len(t.locks)
		t.mu.Unlock()
	}
	return n
}

// CheckTree checks the store's namespace at quiescence: every entry but the
// root has a directory entry as its parent, a directory holds no blocks, a
// path's pair total is the sum of its blocks' counts, and every block in
// the data tables is in exactly one path's block list, at its own place —
// and no list names a block the tables do not hold.
func (s *Store) CheckTree() error {
	entries := make(map[string]*pathMeta)
	for _, t := range s.meta {
		t.mu.Lock()
		for p, m := range t.meta {
			entries[p] = m
		}
		t.mu.Unlock()
	}
	owner := make(map[BlockInfo]string)
	for p, m := range entries {
		if pm := entries[parentOf(p)]; p != "/" && (pm == nil || !pm.dir) {
			return fmt.Errorf("tree: %s has no directory parent", p)
		}
		if m.dir && len(m.blocks) > 0 {
			return fmt.Errorf("tree: directory %s lists %d blocks", p, len(m.blocks))
		}
		var pairs int64
		for _, b := range m.blocks {
			if q, dup := owner[b]; dup {
				return fmt.Errorf("tree: block %+v is listed by %s and by %s", b, q, p)
			}
			owner[b] = p
			pairs += b.Pairs
		}
		if pairs != m.pairs {
			return fmt.Errorf("tree: %s holds %d pairs, its blocks %d", p, m.pairs, pairs)
		}
	}
	stored := 0
	for place, dt := range s.data {
		dt.mu.Lock()
		for b := range dt.m {
			if _, ok := owner[b]; !ok || b.Place != place {
				dt.mu.Unlock()
				return fmt.Errorf("tree: block %+v at place %d is in no path's block list", b, place)
			}
			stored++
		}
		dt.mu.Unlock()
	}
	if stored != len(owner) {
		return fmt.Errorf("tree: paths list %d blocks, the data tables hold %d", len(owner), stored)
	}
	return nil
}
