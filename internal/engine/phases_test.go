package engine

import (
	"testing"
	"time"
)

// spanContext is a task context at place 0 of a two-place job's phases,
// with the host's profiler labels, as a task of a running job has.
func spanContext() *TaskContext {
	var h Host
	h.SetPlaces(2)
	p := new(Phases)
	h.initPhases(p, time.Now())
	return &TaskContext{phases: p, cell: cellOf(0, PhaseMap)}
}

// TestSpanThen: a span handed on with Then is closed and the next opened at
// one instant — the ship phase's last end is the arrive phase's first start
// — and each is counted once at its own place.
func TestSpanThen(t *testing.T) {
	c := spanContext()
	span := c.Begin(PhaseShip, 0)
	time.Sleep(time.Millisecond)
	span = span.Then(PhaseArrive, 1)
	span.End()
	p := c.phases
	ship, arrive := p.At(0, PhaseShip), p.At(1, PhaseArrive)
	if ship.Count != 1 || arrive.Count != 1 || p.At(0, PhaseArrive).Count != 0 || p.At(1, PhaseShip).Count != 0 {
		t.Fatalf("ship %+v at place 0, arrive %+v at place 1: want one span each, and none elsewhere", ship, arrive)
	}
	if ship.Nanos < int64(time.Millisecond) {
		t.Errorf("ship took %v, want the millisecond it was open", time.Duration(ship.Nanos))
	}
	_, shipEnd := p.Window(PhaseShip)
	arriveStart, _ := p.Window(PhaseArrive)
	if shipEnd != arriveStart {
		t.Errorf("ship ended at %v and arrive began at %v: want one instant", shipEnd, arriveStart)
	}
	var zero Span
	if s := zero.Then(PhaseArrive, 1); s != (Span{}) {
		t.Errorf("the zero span handed on %+v, want the zero span", s)
	}
}

// BenchmarkSpan times a remote buffer's crossing as two phases of a task:
// begin-end opens and closes ship, then arrive, reading the clock four
// times; then hands ship on to arrive (Span.Then) and reads it three.
func BenchmarkSpan(b *testing.B) {
	c := spanContext()
	b.Run("begin-end", func(b *testing.B) {
		for b.Loop() {
			s := c.Begin(PhaseShip, 0)
			s.End()
			s = c.Begin(PhaseArrive, 1)
			s.End()
		}
	})
	b.Run("then", func(b *testing.B) {
		for b.Loop() {
			s := c.Begin(PhaseShip, 0).Then(PhaseArrive, 1)
			s.End()
		}
	})
}
