package engine

import (
	"errors"
	"runtime"
	"sync"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/wio"
)

// This file implements the staged parallel merge: the reduce-side k-way
// merge, single-threaded per partition in the base pipeline, split across
// worker goroutines when a partition has enough runs to justify it.
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
// stages; stream-backed (spilled) leaves decode on their worker goroutine,
// so disk decode overlaps final-merge consumption instead of serializing
// into it.

// Source is a stream of ordered elements feeding a merge. RunReader is this
// at wio.Pair (an unbudgeted M3R job's element type) and spill.Stream has
// the shape at spill.Rec (every serialized run's), so one staging
// implementation serves both.
type Source[T any] interface {
	Next() (T, bool, error)
	Close() error
}

// DefaultMergeMinRuns is the run count below which staging never engages: a
// handful of runs merges faster on one goroutine than through channels.
const DefaultMergeMinRuns = 8

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

// MergeConfig is the reduce-side merge tuning both engines read from the
// job configuration.
type MergeConfig struct {
	// Parallelism is the requested number of concurrent subset mergers.
	// Values below 2 disable staging.
	Parallelism int
	// MinRuns is the minimum run count for staging to engage.
	MinRuns int
	// Lifecycle, when non-nil, cancels an engaged staged merge when the job
	// is killed: a watcher ties the lifecycle to the merge group's abort, so
	// worker goroutines stop even while the consumer is blocked inside a
	// UDF. Nil means the merge is governed only by its consumer.
	Lifecycle *JobLifecycle
}

// MergeConfigFromJob reads conf.KeyMergeParallelism ("auto" or a negative
// value resolve to GOMAXPROCS; unset or 0 means off, the default) and
// conf.KeyMergeMinRuns.
func MergeConfigFromJob(job *conf.JobConf) MergeConfig {
	p := 0
	switch v := job.Get(conf.KeyMergeParallelism); v {
	case "":
		// Default: staging off, the serial merge path untouched.
	case "auto":
		p = runtime.GOMAXPROCS(0)
	default:
		if p = job.GetInt(conf.KeyMergeParallelism, 0); p < 0 {
			p = runtime.GOMAXPROCS(0)
		}
	}
	return MergeConfig{
		Parallelism: p,
		MinRuns:     job.GetInt(conf.KeyMergeMinRuns, DefaultMergeMinRuns),
	}
}

// Stages returns how many concurrent subset mergers to run over k sources,
// or 0 when the merge should stay serial. Each engaged worker merges at
// least two sources — staging a single source would only add a channel hop.
func (c MergeConfig) Stages(k int) int {
	if c.Parallelism < 2 || k < c.MinRuns {
		return 0
	}
	s := c.Parallelism
	if s > k/2 {
		s = k / 2
	}
	if s < 2 {
		return 0
	}
	return s
}

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
// worker's resources to be released). lc, when non-nil, cancels the group
// when the job is killed.
func stageSources[T any](sources []Source[T], cmp func(a, b *T) int, stages int, lc *JobLifecycle) []Source[T] {
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
	if lc != nil {
		// Tie the job's cancel source to the group: a kill aborts the merge
		// (workers drop their sources and exit) without waiting for the
		// consumer to come back for another pair. The watcher exits when
		// either side fires.
		go func() {
			select {
			case <-lc.Done():
				g.abort(lc.Err())
			case <-g.cancel:
			}
		}()
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

// StageIfConfigured is the staging gate both engines share: when cfg
// engages for the source count it wraps the sources in staged intermediate
// streams (recording the stage count in stagesCell, when non-nil);
// otherwise it returns the sources unchanged for a serial merge.
func StageIfConfigured[T any](srcs []Source[T], cmp func(a, b *T) int,
	cfg MergeConfig, stagesCell *counters.Counter) []Source[T] {
	s := cfg.Stages(len(srcs))
	if s < 2 {
		return srcs
	}
	if stagesCell != nil {
		stagesCell.Increment(int64(s))
	}
	return stageSources(srcs, cmp, s, cfg.Lifecycle)
}

// pairCompare adapts a key comparator to the pair-element shape the
// tournament and staging take.
func pairCompare(cmp wio.Comparator) func(a, b *wio.Pair) int {
	return func(a, b *wio.Pair) int { return cmp.Compare(a.Key, b.Key) }
}

// NewParallelMergeIter opens a staged merge over readers: `stages`
// concurrent subset mergers feed a final Tournament whose MergeIter streams
// straight into DriveReduce, exactly like the serial merge. The output is
// byte-identical to NewMergeIter over the same readers (keys, values, and
// order among equal keys), for any stages ≥ 1 and any schedule.
func NewParallelMergeIter(readers []RunReader, cmp wio.Comparator, stages int) (*MergeIter, error) {
	pc := pairCompare(cmp)
	return NewSourceMerge(stageSources(readers, pc, stages, nil), pc)
}

// NewStagedMergeIter opens a merge over readers, staging it across
// concurrent subset mergers when cfg and the run count warrant; otherwise
// it is exactly NewMergeIter. stagesCell, when non-nil, observes the number
// of worker stages each engaged staged merge runs (PARALLEL_MERGE_STAGES).
func NewStagedMergeIter(readers []RunReader, cmp wio.Comparator,
	cfg MergeConfig, stagesCell *counters.Counter) (*MergeIter, error) {
	pc := pairCompare(cmp)
	return NewSourceMerge(StageIfConfigured(readers, pc, cfg, stagesCell), pc)
}
