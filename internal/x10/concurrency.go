package x10

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Finish is a structured-concurrency scope: every task AsyncTask spawns on
// it is awaited by Wait, and the first error (or panic, converted to an error)
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

// AsyncTask runs t concurrently within the scope.
func (fin *Finish) AsyncTask(t Task) {
	fin.wg.Add(1)
	go runSpawned()
	spawned <- spawn{fin, t}
}

// spawned hands every goroutine AsyncTask starts its task. The goroutine's
// function is then a plain function that captures nothing, so starting it
// allocates no closure; each send has the receiver started just before it,
// so no send waits on a goroutine that will not come, and no goroutine on a
// send. The buffer lets a finish start a phase's tasks — tens of them on
// the benchmark's jobs — without waiting for each goroutine to be
// scheduled; past it, AsyncTask waits until a started goroutine takes its
// task.
var spawned = make(chan spawn, 64)

type spawn struct {
	fin *Finish
	t   Task
}

// runSpawned runs one task AsyncTask spawned, in its scope.
func runSpawned() {
	s := <-spawned
	fin := s.fin
	defer fin.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			// Keep the stack: a UDF panic surfaced as a bare value is
			// undiagnosable once the goroutine is gone.
			fin.report(fmt.Errorf("x10: async panicked: %v\n%s", r, debug.Stack()))
		}
	}()
	if err := s.t.Run(); err != nil {
		fin.report(err)
	}
}

func (fin *Finish) report(err error) {
	fin.mu.Lock()
	if fin.first == nil {
		fin.first = err
	}
	fin.mu.Unlock()
}

// Wait blocks until every spawned task completes and returns the first error.
func (fin *Finish) Wait() error {
	fin.wg.Wait()
	fin.mu.Lock()
	defer fin.mu.Unlock()
	return fin.first
}
