package engine

import (
	"errors"
	"sync"

	"m3r/internal/wio"
)

// This file implements the staged parallel merge: a k-way merge split across
// worker goroutines. No engine calls it — every reduce-side and map-side
// merge of both engines is one serial Tournament (DESIGN.md "Merge
// architecture" has the numbers that decided it). It is kept only because
// the benchmark's layer ladder measures NewParallelMergeIter as its
// merge_staged rung; ROADMAP item 1(i) drops that rung and deletes this file
// with it.
//
// Loser trees compose — merging merged subsets is itself a tournament merge
// — so the staged topology is: partition the run set into S *contiguous*
// subsets, merge each subset on its own goroutine into a bounded
// channel-backed intermediate stream, and feed the S intermediate streams
// into a final Tournament that the consumer drains exactly as it would
// drain a flat merge. Contiguity is what keeps the output byte-identical to
// the serial merge: within a subset ties resolve to the lower source index,
// across subsets the final tree resolves ties to the lower subset index,
// and contiguous subsets make those two tie-breaks compose into the flat
// merge's global lower-source-index rule.
//
// Only the bounded channel batches are ever materialized between the
// stages; stream-backed (spilled) leaves decode on their worker goroutine.

const (
	// stagedBatchLen amortizes channel synchronization over many elements;
	// stagedChanDepth bounds how far a worker runs ahead of the final
	// merge. Memory between the stages is at most
	// stages × (stagedChanDepth+1) × stagedBatchLen elements.
	stagedBatchLen  = 256
	stagedChanDepth = 4
)

// ErrMergeCancelled reports a staged stream read after the merge was closed.
var ErrMergeCancelled = errors.New("engine: staged merge cancelled")

// stagedGroup is the shared state of one staged merge: the first abort — a
// worker's decode/read error, or the consumer closing early — wins, closes
// the cancel channel, and every worker and stream unblocks. The free list
// recycles spent batch buffers from the consumer back to the workers, so a
// steady-state merge allocates a bounded set of batches instead of one per
// stagedBatchLen elements.
type stagedGroup[T any] struct {
	mu     sync.Mutex
	err    error // first failure; nil for a plain early close
	closed bool
	cancel chan struct{}
	free   chan []T
}

// abort records the first failure (err may be nil for a plain close) and
// releases everyone blocked on the group. Later calls are no-ops, so the
// first error is the one that surfaces.
func (g *stagedGroup[T]) abort(err error) {
	g.mu.Lock()
	if !g.closed {
		g.closed = true
		g.err = err
		close(g.cancel)
	}
	g.mu.Unlock()
}

// failure returns the group's recorded error, ErrMergeCancelled when the
// group was closed without one.
func (g *stagedGroup[T]) failure() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return g.err
	}
	return ErrMergeCancelled
}

// stagedBatch is one bounded hand-off from a worker to the final merge.
type stagedBatch[T any] struct {
	items []T
}

// stagedStream is one intermediate stream of the staged merge: the consumer
// side of a worker's batch channel, shaped as a Source so the final
// Tournament treats it like any other leaf. A clean end is the worker
// closing the channel; an aborted group surfaces through failure().
type stagedStream[T any] struct {
	g    *stagedGroup[T]
	ch   chan stagedBatch[T]
	done chan struct{} // closed when the worker exited and released its sources
	cur  []T
	pos  int
	eof  bool
	// closeErr is the worker's source-close error. The worker writes it
	// before closing done; Close reads it after <-done (happens-before via
	// the channel close), so the staged topology surfaces close failures
	// exactly as the serial merge does.
	closeErr error
}

// Next implements Source.
func (s *stagedStream[T]) Next() (T, bool, error) {
	var zero T
	for {
		if s.pos < len(s.cur) {
			v := s.cur[s.pos]
			s.pos++
			return v, true, nil
		}
		if s.eof {
			return zero, false, nil
		}
		var b stagedBatch[T]
		var ok bool
		// Prefer draining delivered batches (and the close-of-channel EOF)
		// over the cancel signal: batches already in flight are a valid
		// prefix of the stream, and a cleanly finished worker must read as
		// EOF even if a sibling aborted the group afterwards.
		select {
		case b, ok = <-s.ch:
		default:
			select {
			case b, ok = <-s.ch:
			case <-s.g.cancel:
				// The worker died (its error is the group's) or the merge
				// was closed under us; either way the stream ends in error,
				// never in a silent short read.
				return zero, false, s.g.failure()
			}
		}
		if !ok {
			s.eof = true
			return zero, false, nil
		}
		// Recycle the spent batch: its elements were copied out through the
		// final tournament, so the buffer can go straight back to a worker.
		// Clearing drops the element references so the free list pins
		// nothing.
		if s.cur != nil {
			spent := s.cur
			clear(spent)
			select {
			case s.g.free <- spent[:0]:
			default:
			}
		}
		s.cur, s.pos = b.items, 0
	}
}

// Close implements Source: it aborts the group (first close wins) and waits
// for this stream's worker to exit, so every underlying source — including
// spilled-run file handles — is released by the time Close returns. It
// reports the worker's first source-close error.
func (s *stagedStream[T]) Close() error {
	s.g.abort(nil)
	<-s.done
	return s.closeErr
}

// stagedWorker merges its contiguous subset of sources through its own
// SourceMerge — the same driver the serial merge runs, so the two cannot
// diverge — and ships the result in batches. It owns its sources: they are
// closed when the worker exits, on any path. On a read error the worker
// aborts the group — cancelling its siblings — and exits; the consumer
// observes the error through stagedStream.Next.
func stagedWorker[T any](g *stagedGroup[T], srcs []Source[T], cmp func(a, b *T) int,
	ch chan<- stagedBatch[T], done chan<- struct{}, closeErr *error) {
	defer close(done)
	m, err := NewSourceMerge(srcs, cmp)
	if err != nil {
		// NewSourceMerge already closed the sources.
		g.abort(err)
		return
	}
	defer func() { *closeErr = m.Close() }()

	newBatch := func() []T {
		select {
		case b := <-g.free:
			return b
		default:
			return make([]T, 0, stagedBatchLen)
		}
	}
	batch := newBatch()
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case ch <- stagedBatch[T]{items: batch}:
			batch = newBatch()
			return true
		case <-g.cancel:
			return false
		}
	}
	for {
		v, ok, err := m.Next()
		if err != nil {
			g.abort(err)
			return
		}
		if !ok {
			break
		}
		batch = append(batch, v)
		if len(batch) == stagedBatchLen && !flush() {
			return
		}
	}
	if flush() {
		close(ch)
	}
}

// stageSources splits sources into `stages` contiguous subsets, starts one
// merge worker per subset, and returns the intermediate streams in subset
// order — ready to be leaves of a final merge. It takes ownership of the
// sources (workers close them); the caller must Close every returned stream
// (closing any one cancels the group, but Close waits per-stream for its
// worker's resources to be released).
func stageSources[T any](sources []Source[T], cmp func(a, b *T) int, stages int) []Source[T] {
	if stages < 1 {
		// A non-positive stage count would spawn no workers and silently
		// drop (and leak) every source; one worker is the degenerate merge.
		stages = 1
	}
	k := len(sources)
	g := &stagedGroup[T]{
		cancel: make(chan struct{}),
		free:   make(chan []T, stages*(stagedChanDepth+1)),
	}
	out := make([]Source[T], 0, stages)
	for i := 0; i < stages; i++ {
		subset := sources[i*k/stages : (i+1)*k/stages]
		ch := make(chan stagedBatch[T], stagedChanDepth)
		done := make(chan struct{})
		s := &stagedStream[T]{g: g, ch: ch, done: done}
		go stagedWorker(g, subset, cmp, ch, done, &s.closeErr)
		out = append(out, s)
	}
	return out
}

// NewParallelMergeIter opens a staged merge over readers: `stages`
// concurrent subset mergers feed a final Tournament. The output is
// byte-identical to NewMergeIter over the same readers (keys, values, and
// order among equal keys), for any stages ≥ 1 and any schedule.
func NewParallelMergeIter(readers []RunReader, cmp wio.Comparator, stages int) (*MergeIter, error) {
	pc := pairCompare(cmp)
	return NewSourceMerge(stageSources(readers, pc, stages), pc)
}
