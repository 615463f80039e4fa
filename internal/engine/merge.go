package engine

import (
	"fmt"

	"m3r/internal/spill"
	"m3r/internal/wio"
)

// This file implements the reduce-side k-way merge of the run-based
// shuffle-and-sort pipeline. Map tasks sort their per-partition output
// map-side (inside the already-parallel map phase) and ship *sorted runs*;
// the reduce task then merges the runs in O(n log k) instead of re-sorting
// the whole partition in O(n log n) — the same structure Hadoop's sorted
// spill files and out-of-core merge exploit.
//
// The merge is a tournament tree of losers: each internal node stores the
// run that lost the match at that node, the overall winner sits at the
// root. Advancing the winner replays exactly one leaf-to-root path
// (ceil(log2 k) comparisons), with no heap sift-down bookkeeping.
//
// Tournament is the single loser-tree implementation in the tree: the M3R
// engine merges in-memory and spilled shuffle runs through it (MergeIter),
// and the Hadoop engine merges spill-file segments through it
// (internal/hadoop's merger), each instantiating it at their own element
// type — deserialized pairs there, raw records here — so the tournament
// logic exists exactly once.

// Tournament is a loser tree over k ordered sources of T. The caller owns
// the sources and pushes their head elements in: NewTournament takes every
// source's primed head, Winner names the source whose head is globally
// next, and the caller — after consuming that head — either Replaces it
// with the source's next element or Exhausts the source. Keeping the
// element pull on the caller's side keeps the per-record path free of
// indirect advance calls and error plumbing: the tree does comparisons,
// nothing else.
//
// Ties resolve to the lower source index, which is the merge's stability
// contract: callers present sources in source-task order, so equal keys
// surface exactly as a stable sort of the concatenation would produce
// them.
type Tournament[T any] struct {
	cmp   func(a, b T) int
	heads []T
	live  []bool
	tree  []int
	k     int
}

// NewTournament builds the tree over the primed heads (live[i] false marks
// a source empty from the start), bottom-up: leaf i sits at conceptual
// node k+i; every internal node 1..k-1 plays its children's winners, keeps
// the loser, and sends the winner up; tree[0] holds the champion. It takes
// ownership of heads and live.
func NewTournament[T any](heads []T, live []bool, cmp func(a, b T) int) *Tournament[T] {
	k := len(heads)
	t := &Tournament[T]{
		cmp:   cmp,
		heads: heads,
		live:  live,
		tree:  make([]int, max(k, 1)),
		k:     k,
	}
	if k <= 1 {
		return t
	}
	winner := make([]int, 2*k)
	for i := 0; i < k; i++ {
		winner[k+i] = i
	}
	for n := k - 1; n >= 1; n-- {
		a, b := winner[2*n], winner[2*n+1]
		if t.wins(a, b) {
			winner[n], t.tree[n] = a, b
		} else {
			winner[n], t.tree[n] = b, a
		}
	}
	t.tree[0] = winner[1]
	return t
}

// wins reports whether source i's head should be emitted before source j's:
// an exhausted source loses to any live one, element order decides
// otherwise, and ties go to the lower source index (the stability
// tie-break).
func (t *Tournament[T]) wins(i, j int) bool {
	if !t.live[i] {
		return !t.live[j] && i < j
	}
	if !t.live[j] {
		return true
	}
	if c := t.cmp(t.heads[i], t.heads[j]); c != 0 {
		return c < 0
	}
	return i < j
}

// Winner returns the source holding the globally next element, or ok=false
// when every source is exhausted (the champion itself is dead).
func (t *Tournament[T]) Winner() (int, bool) {
	if t.k == 0 {
		return -1, false
	}
	w := t.tree[0]
	return w, t.live[w]
}

// Head returns source i's current head element.
func (t *Tournament[T]) Head(i int) T { return t.heads[i] }

// Replace installs source w's next head after its previous one was
// consumed, replaying the matches on leaf w's path to the root.
func (t *Tournament[T]) Replace(w int, head T) {
	t.heads[w] = head
	t.replay(w)
}

// Exhaust marks source w empty and replays its path. The head slot is
// zeroed so the tree does not retain the last element.
func (t *Tournament[T]) Exhaust(w int) {
	var zero T
	t.heads[w] = zero
	t.live[w] = false
	t.replay(w)
}

func (t *Tournament[T]) replay(w int) {
	cur := w
	for n := (t.k + w) / 2; n >= 1; n /= 2 {
		if t.wins(t.tree[n], cur) {
			t.tree[n], cur = cur, t.tree[n]
		}
	}
	t.tree[0] = cur
}

// RunReader is one sorted run of a reduce partition's input: the in-memory
// leaf aliases the pairs a map task shipped on-heap, the stream-backed leaf
// decodes a run the shuffle spilled to disk in the shared spill record
// format. Both feed the same tournament.
type RunReader interface {
	// Next returns the run's next pair, ok=false at the end.
	Next() (wio.Pair, bool, error)
	// Close releases any resources backing the run.
	Close() error
}

// sliceRunReader is the in-memory leaf.
type sliceRunReader struct {
	pairs []wio.Pair
	pos   int
}

// NewSliceRunReader returns a RunReader over an in-memory sorted run. The
// yielded pairs alias the slice (no copies).
func NewSliceRunReader(pairs []wio.Pair) RunReader {
	return &sliceRunReader{pairs: pairs}
}

func (r *sliceRunReader) Next() (wio.Pair, bool, error) {
	if r.pos >= len(r.pairs) {
		// Drop the backing slice at exhaustion so the run's memory is
		// collectable as soon as the consumer lets go of its pairs — the
		// physical counterpart of the budget release a ReleasingRunReader
		// wrapper performs at this moment.
		r.pairs = nil
		r.pos = 0
		return wio.Pair{}, false, nil
	}
	p := r.pairs[r.pos]
	r.pos++
	return p, true, nil
}

func (r *sliceRunReader) Close() error { return nil }

// RecSource is a stream of serialized spill records (spill.Stream or any
// equivalent segment reader) — the merge Source at the raw-record element
// type.
type RecSource = Source[spill.Rec]

// decodingRunReader is the stream-backed leaf: it deserializes each raw
// record into fresh writables of the run's declared key/value classes. The
// decoder is built at the first record, once per run.
type decodingRunReader struct {
	src                RecSource
	keyClass, valClass string
	dec                *spill.PairDecoder
}

// NewDecodingRunReader returns a RunReader that decodes src's records into
// fresh keyClass/valClass writables — the stream-backed merge leaf for runs
// spilled in the shared spill record format.
func NewDecodingRunReader(src RecSource, keyClass, valClass string) RunReader {
	return &decodingRunReader{src: src, keyClass: keyClass, valClass: valClass}
}

func (r *decodingRunReader) Next() (wio.Pair, bool, error) {
	rec, ok, err := r.src.Next()
	if err != nil || !ok {
		return wio.Pair{}, false, err
	}
	if r.dec == nil {
		if r.dec, err = spill.NewPairDecoder(r.keyClass, r.valClass); err != nil {
			return wio.Pair{}, false, err
		}
	}
	p, err := r.dec.Decode(rec)
	if err != nil {
		return wio.Pair{}, false, fmt.Errorf("engine: spilled run: %w", err)
	}
	return p, true, nil
}

func (r *decodingRunReader) Close() error { return r.src.Close() }

// SourceMerge streams the merge of k ordered sources — the single merge
// iterator in the tree, instantiated at wio.Pair for the in-memory engines
// (MergeIter) and at spill.Rec for the Hadoop engine's raw-record segment
// merger. Stability contract: sources must be given in source-task order,
// each internally ordered by cmp with equal elements in original emission
// order; ties across sources resolve to the lower source index. Under that
// contract the stream is identical to concatenating the sources in order
// and stable-sorting the result.
type SourceMerge[T any] struct {
	srcs []Source[T]
	t    *Tournament[T]
}

// NewSourceMerge opens a merge over sources, closing them all on error.
func NewSourceMerge[T any](srcs []Source[T], cmp func(a, b T) int) (*SourceMerge[T], error) {
	k := len(srcs)
	heads := make([]T, k)
	live := make([]bool, k)
	for i, s := range srcs {
		h, ok, err := s.Next()
		if err != nil {
			for _, s := range srcs {
				s.Close()
			}
			return nil, err
		}
		heads[i], live[i] = h, ok
	}
	return &SourceMerge[T]{srcs: srcs, t: NewTournament(heads, live, cmp)}, nil
}

// Next returns the globally next element in merge order.
func (m *SourceMerge[T]) Next() (T, bool, error) {
	var zero T
	w, ok := m.t.Winner()
	if !ok {
		return zero, false, nil
	}
	out := m.t.Head(w)
	h, ok, err := m.srcs[w].Next()
	if err != nil {
		return zero, false, err
	}
	if ok {
		m.t.Replace(w, h)
	} else {
		m.t.Exhaust(w)
	}
	return out, true, nil
}

// Close closes every source, returning the first error.
func (m *SourceMerge[T]) Close() error {
	var first error
	for _, s := range m.srcs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MergeIter is the pair-level SourceMerge: it streams the merge of sorted
// runs, in-memory and stream-backed alike, directly into DriveReduce — no
// materialized merged copy.
type MergeIter = SourceMerge[wio.Pair]

// NewMergeIter opens a merge over readers. On error the readers are closed.
func NewMergeIter(readers []RunReader, cmp wio.Comparator) (*MergeIter, error) {
	return NewSourceMerge(WidenSources[wio.Pair](readers), func(a, b wio.Pair) int {
		return cmp.Compare(a.Key, b.Key)
	})
}
