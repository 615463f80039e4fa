package hadoop

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the local-filesystem fault seam for the Hadoop engine's task
// files (map spills, merged map output, and reducers' opens of map output
// segments): injectFault consults an injectable fault hook before each
// touches the disk. The seam exists so the bounded re-execution machinery
// (runAttempts) can be pinned by tests — and by the CI chaos leg — against
// deterministic transient failures: an attempt's create or open fails, the
// attempt is torn down, the retry succeeds, and the job's final bytes must
// match a fault-free run exactly.

// createFileFault, when set, is called with the target path before each
// task-file create or open; a non-nil return fails the operation with that
// error. The hook must be safe for concurrent use — map and reduce tasks
// reach it from many goroutines.
var createFileFault atomic.Value // of func(string) error

// SetCreateFileFault installs (or, with nil, clears) the fault hook applied
// to every task-file create and segment open. Test-only seam.
func SetCreateFileFault(f func(path string) error) {
	if f == nil {
		f = func(string) error { return nil }
	}
	createFileFault.Store(f)
}

// injectFault asks the fault hook, when one is set, whether the operation
// on path fails: createLocalFile's, and a reduce attempt's open of a map
// output's segment (fetchSegments).
func injectFault(path string) error {
	if f, _ := createFileFault.Load().(func(string) error); f != nil {
		return f(path)
	}
	return nil
}

// createLocalFile is os.Create behind the fault seam. All task-attempt file
// creates in this engine go through it.
func createLocalFile(path string) (*os.File, error) {
	if err := injectFault(path); err != nil {
		return nil, err
	}
	return os.Create(path)
}

// ErrInjectedFault marks a fault-seam failure so tests (and retry logs) can
// tell injected flakiness from real disk errors.
var ErrInjectedFault = fmt.Errorf("hadoop: injected transient task-file fault")

// FailNthCreates returns a fault hook that fails the listed operations —
// creates and reduce-side opens, 1-based, in global admission order —
// exactly once each, then heals. Deterministic under a fixed schedule of
// operations; with concurrent tasks the op indices interleave, so tests
// that need exact placement run single-threaded phases. The second return
// value reports how many faults have fired.
func FailNthCreates(ops ...int) (func(path string) error, func() int) {
	failAt := make(map[int]*sync.Once, len(ops))
	for _, op := range ops {
		failAt[op] = new(sync.Once)
	}
	var counter atomic.Int64
	var fired atomic.Int64
	hook := func(path string) error {
		n := int(counter.Add(1))
		once, ok := failAt[n]
		if !ok {
			return nil
		}
		var err error
		once.Do(func() {
			fired.Add(1)
			err = fmt.Errorf("%w: op %d (%s)", ErrInjectedFault, n, path)
		})
		return err
	}
	return hook, func() int { return int(fired.Load()) }
}

// init arms the seam from the environment so the CI chaos leg can inject
// flakiness into any test binary without code changes:
//
//	M3R_CHAOS_FS_FAIL_OPS=3,7  # fail the 3rd and 7th create or open once each
//
// Each listed op fails exactly once, then heals — a retrying engine absorbs
// it; an engine without retry surfaces ErrInjectedFault.
func init() {
	//lint:ignore keycheck arms a fault injector, not a knob: there is no conf key for conf.DefaultsEnv to carry
	spec := os.Getenv("M3R_CHAOS_FS_FAIL_OPS")
	if spec == "" {
		return
	}
	var ops []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			continue
		}
		ops = append(ops, n)
	}
	if len(ops) == 0 {
		return
	}
	hook, _ := FailNthCreates(ops...)
	SetCreateFileFault(hook)
}
