package engine

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"
)

// A job times itself in phases, place by place: a span is one stretch of
// one phase at one place, timed with the real clock and counted. Map and
// reduce are task spans, opened by RunTask around the task's body; sort,
// ship, arrive, spill, merge_open and task commits are spans inside a
// task, so their time is also their task's; plan, barrier, the job's
// commit and cleanup are the job's own spans. A phase an engine does not
// have reads zero (DESIGN.md "Job lifecycle" has which span is where).
//
// Every span also runs under the profiler labels {engine, phase, place}, so
// a CPU profile splits by phase (pprof -tagfocus phase=reduce). The label
// contexts are built once per engine (Host.SetPlaces) and switched with
// pprof.SetGoroutineLabels, so a span allocates nothing.

// Phase names one phase of a job.
type Phase uint8

const (
	PhasePlan      Phase = iota // splits, placement and the job's layout
	PhaseMap                    // a map task
	PhaseSort                   // sort and combine of a task's output
	PhaseShip                   // a buffer crossing to another place
	PhaseArrive                 // shipped records indexed, sorted and installed where they arrived
	PhaseSpill                  // a spill file written
	PhaseBarrier                // between the last map task and the first reduce task
	PhaseMergeOpen              // a reduce task's runs opened as one merge
	PhaseReduce                 // a reduce task
	PhaseCommit                 // a task's output, or the job's, committed
	PhaseCleanup                // what the job leaves behind removed
	NumPhases
)

var phaseNames = [NumPhases]string{"plan", "map", "sort", "ship", "arrive", "spill", "barrier", "merge_open", "reduce", "commit", "cleanup"}

func (p Phase) String() string { return phaseNames[p] }

// PhaseTime is one phase of a job, at one place or over all of them: the
// real time its spans took and how many there were.
type PhaseTime struct {
	Nanos, Count int64
}

// Phases is a job's phase times by place, laid out once per job, one slice;
// spans of concurrent tasks add to it atomically. Beside them it keeps, for
// each phase over all places, when its first span began and its last
// ended. A Report holds a copy, which shares the times and nothing else of
// the job's.
type Phases struct {
	start time.Time
	// vals is, for each cell place*NumPhases + phase, its nanoseconds then
	// its span count; after them, for each phase, its first span's start
	// (an offset in ns, plus one so that 0 is unset) then its last span's
	// end.
	vals   []atomic.Int64
	labels []context.Context // the host's, by cell; nil: no labels
}

// SetPlaces sizes the phase times of the host's jobs to n places and builds
// the profiler label context of every phase at every place, once.
func (h *Host) SetPlaces(n int) {
	h.places = n
	h.labels = make([]context.Context, n*int(NumPhases))
	for p := range n {
		place := strconv.Itoa(p)
		for ph := range NumPhases {
			h.labels[p*int(NumPhases)+int(ph)] = pprof.WithLabels(context.Background(), pprof.Labels("engine", h.Name, "phase", ph.String(), "place", place))
		}
	}
}

// initPhases lays out a job's phase times in p, on the host's places (one,
// for a host that never set them).
func (h *Host) initPhases(p *Phases, start time.Time) {
	p.start, p.labels = start, h.labels
	p.vals = make([]atomic.Int64, 2*(max(h.places, 1)+1)*int(NumPhases))
}

// Places is the number of places the times are kept for.
func (p *Phases) Places() int { return len(p.vals)/(2*int(NumPhases)) - 1 }

// At is phase ph at place.
func (p *Phases) At(place int, ph Phase) PhaseTime {
	i := 2 * cellOf(place, ph)
	return PhaseTime{Nanos: p.vals[i].Load(), Count: p.vals[i+1].Load()}
}

// Total is phase ph over every place.
func (p *Phases) Total(ph Phase) PhaseTime {
	var t PhaseTime
	for place := range p.Places() {
		a := p.At(place, ph)
		t.Nanos += a.Nanos
		t.Count += a.Count
	}
	return t
}

// Window is when phase ph's first span began and its last span ended, at
// any place, as offsets from the job's start (Report.Wall is on the same
// clock); zero for a phase the job never entered.
func (p *Phases) Window(ph Phase) (first, last time.Duration) {
	w := p.window(ph)
	if f := w[0].Load(); f > 0 {
		first = time.Duration(f - 1)
	}
	return first, time.Duration(w[1].Load())
}

// window is phase ph's first start and last end.
func (p *Phases) window(ph Phase) []atomic.Int64 {
	i := len(p.vals) - 2*int(NumPhases-ph)
	return p.vals[i : i+2]
}

// Span is one open stretch of a phase; End closes it. The zero Span, and a
// span of a context no job laid out, does nothing.
type Span struct {
	p    *Phases
	cell int32
	back int32 // the cell whose labels End restores; -1 for none
	at   time.Duration
}

// begin opens a span of cell i that hands the labels back to cell back.
func (p *Phases) begin(i, back int) Span {
	if p == nil {
		return Span{}
	}
	if p.labels != nil {
		pprof.SetGoroutineLabels(p.labels[i])
	}
	return Span{p: p, cell: int32(i), back: int32(back), at: time.Since(p.start)}
}

func cellOf(place int, ph Phase) int { return place*int(NumPhases) + int(ph) }

// End closes the span.
func (s Span) End() {
	p := s.p
	if p == nil {
		return
	}
	s.close(time.Since(p.start))
	if p.labels != nil {
		if s.back < 0 {
			pprof.SetGoroutineLabels(context.Background())
		} else {
			pprof.SetGoroutineLabels(p.labels[s.back])
		}
	}
}

// Then closes s and opens a span of phase ph at place in its stead, with
// one reading of the clock for the end of the one and the start of the
// other: a task's hand-off from one phase to the next (ship to arrive). The
// new span hands the labels back where s would have.
func (s Span) Then(ph Phase, place int) Span {
	p := s.p
	if p == nil {
		return Span{}
	}
	at := time.Since(p.start)
	s.close(at)
	i := cellOf(place, ph)
	if p.labels != nil {
		pprof.SetGoroutineLabels(p.labels[i])
	}
	return Span{p: p, cell: int32(i), back: s.back, at: at}
}

// close adds s, ending at end, to its cell and to its phase's window.
func (s Span) close(end time.Duration) {
	p := s.p
	p.vals[2*s.cell].Add(int64(end - s.at))
	p.vals[2*s.cell+1].Add(1)
	w := p.window(Phase(int(s.cell) % int(NumPhases)))
	for f := w[0].Load(); f == 0 || int64(s.at)+1 < f; f = w[0].Load() {
		if w[0].CompareAndSwap(f, int64(s.at)+1) {
			break
		}
	}
	for l := w[1].Load(); int64(end) > l; l = w[1].Load() {
		if w[1].CompareAndSwap(l, int64(end)) {
			break
		}
	}
}

// Begin opens a span of the job's own: plan, barrier, its commit, cleanup.
func (j *Job) Begin(ph Phase, place int) Span { return j.phases.begin(cellOf(place, ph), -1) }

// Begin opens a span of phase ph at place inside the task, which hands the
// labels back to the task's own span when it ends.
func (c *TaskContext) Begin(ph Phase, place int) Span {
	return c.phases.begin(cellOf(place, ph), c.cell)
}
