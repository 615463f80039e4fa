package engine

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
