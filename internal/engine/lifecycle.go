package engine

import "sync"

// CloseAllOnErr closes every already-open source after a later open failed,
// discarding close errors — the open error is the one the caller surfaces.
// It is the shared teardown loop of every merge-open call site (the Hadoop
// engine's segment opens, the M3R engine's spilled-run opens): a merge that
// fails to open its k-th source must not strand the k-1 file handles it
// already holds.
func CloseAllOnErr[C interface{ Close() error }](open []C) {
	for _, s := range open {
		s.Close()
	}
}

// releasingSource wraps a merge source with a one-shot release callback,
// fired the first time the run is known to be done with its backing memory:
// at exhaustion (the merge pulled every element) or at Close (the merge was
// torn down early), whichever comes first. The M3R engine uses it to hand a
// resident run's bytes back to its place's BudgetPool as the merge drains
// the run — the incremental release that frees budget during a long reduce
// phase, for the other jobs sharing the pool.
type releasingSource[T any] struct {
	inner   Source[T]
	release func()
	once    sync.Once
}

// NewReleasingSource wraps inner so release runs exactly once, at the run's
// exhaustion or close. release must be non-nil.
func NewReleasingSource[T any](inner Source[T], release func()) Source[T] {
	return &releasingSource[T]{inner: inner, release: release}
}

func (r *releasingSource[T]) Next() (T, bool, error) {
	v, ok, err := r.inner.Next()
	if !ok || err != nil {
		// Exhausted (or failed — the merge will tear down either way): the
		// run's elements have all been handed to the consumer. The memory
		// itself stays alive until the consumer drops it, but the shuffle's
		// claim on the bytes ends here, which is what the accountant tracks.
		r.once.Do(r.release)
	}
	return v, ok, err
}

func (r *releasingSource[T]) Close() error {
	r.once.Do(r.release)
	return r.inner.Close()
}
