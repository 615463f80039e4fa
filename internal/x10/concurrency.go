package x10

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Finish is a structured-concurrency scope: every Async spawned on it is
// awaited by Wait, and the first error (or panic, converted to an error)
// is reported. It models X10's `finish { async S ... }`.
type Finish struct {
	wg    sync.WaitGroup
	mu    sync.Mutex
	first error
}

// NewFinish returns an empty finish scope.
func NewFinish() *Finish { return &Finish{} }

// Task is work for AsyncTask. A caller whose work is already a value
// hands that over, and spawning it costs no closure of its own.
type Task interface{ Run() error }

// taskFunc is a function as a Task.
type taskFunc func() error

func (f taskFunc) Run() error { return f() }

// Async runs f concurrently within the scope.
func (fin *Finish) Async(f func() error) { fin.AsyncTask(taskFunc(f)) }

// AsyncTask runs t concurrently within the scope.
func (fin *Finish) AsyncTask(t Task) {
	fin.wg.Add(1)
	go func() {
		defer fin.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				// Keep the stack: a UDF panic surfaced as a bare value is
				// undiagnosable once the goroutine is gone.
				fin.report(fmt.Errorf("x10: async panicked: %v\n%s", r, debug.Stack()))
			}
		}()
		if err := t.Run(); err != nil {
			fin.report(err)
		}
	}()
}

func (fin *Finish) report(err error) {
	fin.mu.Lock()
	if fin.first == nil {
		fin.first = err
	}
	fin.mu.Unlock()
}

// Wait blocks until every Async completes and returns the first error.
func (fin *Finish) Wait() error {
	fin.wg.Wait()
	fin.mu.Lock()
	defer fin.mu.Unlock()
	return fin.first
}

// Team is a cyclic barrier over n members, modelling X10's Team API. The
// M3R engine uses it to separate the shuffle and reduce phases.
type Team struct {
	n     int
	mu    sync.Mutex
	count int
	gen   chan struct{}
}

// NewTeam returns a barrier for n members.
func NewTeam(n int) *Team {
	return &Team{n: n, gen: make(chan struct{})}
}

// BarrierCancel blocks until all n members have called it, then releases them
// all; the barrier is reusable. If done closes while the member is waiting (a
// nil done never does), it stops waiting and returns done's cause via errf (nil
// errf yields a generic error). The member's arrival is still counted — all
// members of an M3R job share one cancel source, so once any member leaves
// early, every member does, and the barrier generation is never completed or
// reused; the job is tearing down.
func (t *Team) BarrierCancel(done <-chan struct{}, errf func() error) error {
	t.mu.Lock()
	t.count++
	if t.count == t.n {
		t.count = 0
		close(t.gen)
		t.gen = make(chan struct{})
		t.mu.Unlock()
		return nil
	}
	ch := t.gen
	t.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-done:
		if errf != nil {
			if err := errf(); err != nil {
				return err
			}
		}
		return fmt.Errorf("x10: barrier cancelled")
	}
}
