// Package leakcheck is m3rlint's runtime sibling: a hand-rolled
// goroutine-leak gate wired into TestMain of the packages that spawn
// workers — place goroutines (internal/m3r), the staged merge kernel's
// workers (internal/engine) and server accept loops (internal/server).
// After a package's tests pass, any goroutine still running module code is
// a worker that outlived its job, and the package fails with the offending
// stacks.
//
// Detection is by stack inspection rather than bare NumGoroutine deltas:
// runtime and testing goroutines (GC workers, timer scavenger, parked
// test runners) come and go freely, so only goroutines whose stack — or
// creator — is module code count as leaks. Shutdown is asynchronous
// (close() returns before a worker's final return unwinds), so the check
// polls up to a grace period before declaring the survivors leaked.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// modulePrefix marks a stack frame (or "created by" line) as module code.
const modulePrefix = "m3r/internal/"

// grace is how long workers get to unwind after the last test.
const grace = 5 * time.Second

// Main wraps m.Run with the leak gate: use from TestMain as
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stacks := Leaked(grace); stacks != "" {
			fmt.Fprintf(os.Stderr, "leakcheck: goroutines outlived this package's tests:\n\n%s\n", stacks)
			code = 1
		}
	}
	os.Exit(code)
}

// Leaked polls until no module goroutines remain or the grace period
// expires, returning the offending stacks ("" when clean).
func Leaked(wait time.Duration) string {
	deadline := time.Now().Add(wait)
	for {
		bad := offenders()
		if len(bad) == 0 {
			return ""
		}
		if time.Now().After(deadline) {
			return strings.Join(bad, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// offenders returns the stacks of goroutines currently running (or
// created by) module code, excluding the calling goroutine.
func offenders() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := strings.Split(string(buf), "\n\n")
	var bad []string
	for i, s := range stacks {
		if i == 0 {
			continue // the first stack is this goroutine, running leakcheck
		}
		if strings.Contains(s, modulePrefix) {
			bad = append(bad, s)
		}
	}
	return bad
}
