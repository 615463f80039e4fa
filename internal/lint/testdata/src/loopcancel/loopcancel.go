// Fixture corpus for loopcancel: record loops within lifecycle reach must
// poll cancellation.
package loopcancel

import (
	"m3r/internal/engine"
	"m3r/internal/wio"
)

// iter is a module record source.
type iter struct{ n int }

func (it *iter) Next() (wio.Pair, bool, error) {
	if it.n == 0 {
		return wio.Pair{}, false, nil
	}
	it.n--
	return wio.Pair{}, true, nil
}

// task mirrors the execution structs: the lifecycle is a field.
type task struct {
	lc  *engine.JobLifecycle
	src *iter
}

// wrapper reaches the lifecycle through a nested struct, like
// sortBuffer.run -> jobRun.lc.
type wrapper struct {
	t *task
}

// unkillable pumps records with the lifecycle one field away and never
// polls it.
func (t *task) unkillable() error {
	for { // want `per-record loop cannot observe job cancellation`
		_, ok, err := t.src.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// nestedReach reaches the lifecycle two fields deep.
func (w *wrapper) nestedReach() error {
	for { // want `per-record loop cannot observe job cancellation`
		_, ok, err := w.t.src.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// polls checks the lifecycle every record: clean.
func (t *task) polls() error {
	for {
		if err := t.lc.Err(); err != nil {
			return err
		}
		_, ok, err := t.src.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// pollsViaHelper polls through a same-package helper, like the spill
// queue's write path.
func (t *task) pollsViaHelper() error {
	for {
		if err := t.check(); err != nil {
			return err
		}
		_, ok, err := t.src.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

func (t *task) check() error { return t.lc.Err() }

// orphan has no lifecycle in reach: cancellation is its caller's problem,
// as with the generic merge kernels.
func orphan(src *iter) (int, error) {
	n := 0
	for {
		_, ok, err := src.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// priming advances each source once, bounded by the slice: not a record
// pump.
func (t *task) priming(srcs []*iter) error {
	if err := t.lc.Err(); err != nil {
		return err
	}
	for _, s := range srcs {
		if _, _, err := s.Next(); err != nil {
			return err
		}
	}
	return nil
}

// ignored is a deliberate violation under the escape hatch.
func (t *task) ignored() error {
	//lint:ignore loopcancel fixture exercising the suppression path
	for {
		_, ok, err := t.src.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}
