package kvstore

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
