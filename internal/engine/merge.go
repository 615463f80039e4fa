package engine

import "m3r/internal/wio"

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
// Tournament is the single loser-tree implementation in the tree,
// instantiated at two element types: pairs, for an unbudgeted M3R job's
// in-memory runs (MergeIter), and keyed raw records, for every serialized
// run of either engine (RawMerge) — so the tournament logic exists exactly
// once.

// Source is a stream of ordered elements feeding a merge. RunReader is this
// at wio.Pair (an unbudgeted M3R job's element type) and RecSource at
// spill.Rec (every serialized run's).
type Source[T any] interface {
	Next() (T, bool, error)
	Close() error
}

// Tournament is a loser tree over k ordered sources of T. The caller owns
// the sources and pushes their head elements in: init takes every
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
	cmp   func(a, b *T) int
	heads []T
	live  []bool
	tree  []int
	k     int
	// replays counts the leaf-to-root paths replayed after the tree was
	// built, for the tests that attribute a merge's work.
	replays int
}

// init builds t's tree over the primed heads (live[i] false marks a source
// empty from the start), bottom-up: leaf i sits at conceptual node k+i;
// every internal node 1..k-1 plays its children's winners, keeps the loser,
// and sends the winner up; tree[0] holds the champion. It takes ownership
// of heads, live and tree, a zeroed max(k, 1) long. Owners hold their tree
// by value.
func (t *Tournament[T]) init(heads []T, live []bool, tree []int, cmp func(a, b *T) int) {
	k := len(heads)
	var spare T // Replace's scratch, heads[k]
	*t = Tournament[T]{
		cmp:   cmp,
		heads: append(heads, spare),
		live:  live,
		tree:  tree,
		k:     k,
	}
	if k <= 1 {
		return
	}
	var buf [64]int // the winners of a merge of up to 32 runs
	winner := buf[:]
	if 2*k > len(buf) {
		winner = make([]int, 2*k)
	}
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
	if c := t.cmp(&t.heads[i], &t.heads[j]); c != 0 {
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

// Replace installs source w's next head after its previous one was
// consumed, replaying the matches on leaf w's path to the root — unless the
// new head compares equal to the one it replaces. Every match w played is
// decided by the two keys and, on a tie, the two source indices; an equal
// head changes neither, so the tree already stands as the replay would
// leave it, and duplicate-heavy runs pay one comparison a record, not a path.
func (t *Tournament[T]) Replace(w int, head T) {
	// Compared from the spare slot: a pointer to the parameter would move it
	// to the heap. (cmp takes pointers so that a wide element is not copied.)
	t.heads[t.k] = head
	t.replaceFromSpare(w)
}

// spare is the slot Replace stages a new head in: a caller that builds a
// wide element may build it there and call replaceFromSpare, and copy it
// once instead of thrice.
func (t *Tournament[T]) spare() *T { return &t.heads[t.k] }

// replaceFromSpare is Replace of the head staged in the spare slot.
func (t *Tournament[T]) replaceFromSpare(w int) {
	equal := t.cmp(&t.heads[w], &t.heads[t.k]) == 0
	t.heads[w] = t.heads[t.k]
	if !equal {
		t.replay(w)
	}
}

// Continue returns source w's head for the caller to overwrite, in place,
// with w's next element when the caller knows that element equals the one
// consumed — it continues that head's key group. Nothing is compared or
// replayed: w won every match with an equal key and keeps winning them, on
// a tie by the same lower index as before, so equal keys keep their source
// order.
func (t *Tournament[T]) Continue(w int) *T { return &t.heads[w] }

// Exhaust marks source w empty and replays its path. The head slot is
// zeroed so the tree does not retain the last element.
func (t *Tournament[T]) Exhaust(w int) {
	var zero T
	t.heads[w], t.heads[t.k] = zero, zero
	t.live[w] = false
	t.replay(w)
}

func (t *Tournament[T]) replay(w int) {
	t.replays++
	cur := w
	for n := (t.k + w) / 2; n >= 1; n /= 2 {
		if t.wins(t.tree[n], cur) {
			t.tree[n], cur = cur, t.tree[n]
		}
	}
	t.tree[0] = cur
}

// RunReader is one sorted run of pairs in a reduce partition's input: the
// in-memory leaf aliases the pairs a map task shipped on-heap. (A serialized
// run is a RecSource and merges through RawMerge.)
type RunReader = Source[wio.Pair]

// SliceRun is the in-memory leaf: a cursor over a sorted run whose pairs it
// yields aliased (no copies). Reset aims one at a run, so a caller with many
// runs may allocate their leaves together.
type SliceRun struct {
	pairs []wio.Pair
	pos   int
}

// NewSliceRunReader returns a RunReader over an in-memory sorted run.
func NewSliceRunReader(pairs []wio.Pair) RunReader {
	return &SliceRun{pairs: pairs}
}

// Reset aims r at the start of pairs.
func (r *SliceRun) Reset(pairs []wio.Pair) { r.pairs, r.pos = pairs, 0 }

// Next implements RunReader.
func (r *SliceRun) Next() (wio.Pair, bool, error) {
	if r.pos >= len(r.pairs) {
		// Drop the backing slice at exhaustion so the run's memory is
		// collectable as soon as the consumer lets go of its pairs.
		r.pairs = nil
		r.pos = 0
		return wio.Pair{}, false, nil
	}
	p := r.pairs[r.pos]
	r.pos++
	return p, true, nil
}

// Close implements RunReader.
func (r *SliceRun) Close() error { return nil }

// SourceMerge streams the merge of k ordered sources — the single merge
// iterator in the tree, instantiated at wio.Pair for in-memory runs
// (MergeIter) and at keyed raw records for serialized ones (RawMerge).
// Stability contract: sources must be given in source-task order,
// each internally ordered by cmp with equal elements in original emission
// order; ties across sources resolve to the lower source index. Under that
// contract the stream is identical to concatenating the sources in order
// and stable-sorting the result.
type SourceMerge[T any] struct {
	srcs []Source[T]
	t    Tournament[T]
}

// NewSourceMerge opens a merge over sources, closing them all on error.
func NewSourceMerge[T any](srcs []Source[T], cmp func(a, b *T) int) (*SourceMerge[T], error) {
	k := len(srcs)
	m := new(SourceMerge[T])
	if err := m.open(srcs, cmp, make([]T, k, k+1), make([]bool, k), make([]int, max(k, 1))); err != nil {
		return nil, err
	}
	return m, nil
}

// open primes every source's head into heads (len(srcs) long, with room
// for one more) and builds the tournament over them in live and tree (tree
// max(len(srcs), 1) long, cleared here, so a room may be opened again),
// closing every source on error.
func (m *SourceMerge[T]) open(srcs []Source[T], cmp func(a, b *T) int, heads []T, live []bool, tree []int) error {
	for i, s := range srcs {
		h, ok, err := s.Next()
		if err != nil {
			for _, s := range srcs {
				s.Close()
			}
			return err
		}
		heads[i], live[i] = h, ok
	}
	clear(tree)
	m.srcs = srcs
	m.t.init(heads, live, tree, cmp)
	return nil
}

// Peek returns the globally next element without consuming it, ok=false
// when every source is exhausted. The pointer is good until Advance: a
// consumer of wide elements reads them where they stand.
func (m *SourceMerge[T]) Peek() (*T, bool) {
	w, ok := m.t.Winner()
	if !ok {
		return nil, false
	}
	return &m.t.heads[w], true
}

// Advance consumes the element Peek returned: its source's next element
// takes its place in the tournament.
func (m *SourceMerge[T]) Advance() error {
	w, _ := m.t.Winner()
	h, ok, err := m.srcs[w].Next()
	if err != nil {
		return err
	}
	if ok {
		m.t.Replace(w, h)
	} else {
		m.t.Exhaust(w)
	}
	return nil
}

// Next returns the globally next element in merge order.
func (m *SourceMerge[T]) Next() (T, bool, error) {
	var zero T
	p, ok := m.Peek()
	if !ok {
		return zero, false, nil
	}
	out := *p
	if err := m.Advance(); err != nil {
		return zero, false, err
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
	return NewSourceMerge(readers, pairCompare(cmp))
}

// PairMerges is the storage of a job's in-memory merges, laid out together:
// n merges (one a reduce partition) of up to k sorted runs each (one a map
// task), under the job's one comparator and cancel check, so that opening
// one allocates nothing.
type PairMerges struct {
	k       int
	cmp     func(a, b *wio.Pair) int
	lc      *JobLifecycle
	merges  []MergeIter
	cancels []cancelPairIter
	leaves  []SliceRun
	readers []RunReader
	heads   []wio.Pair
	live    []bool
	tree    []int
}

// LayOut makes room in p for n merges of up to k runs each, ordered by cmp
// and read through lc's cancel check, in eight allocations whatever n and
// k.
func (p *PairMerges) LayOut(n, k int, cmp wio.Comparator, lc *JobLifecycle) {
	*p = PairMerges{k: k, cmp: pairCompare(cmp), lc: lc}
	p.merges = make([]MergeIter, n)
	p.cancels = make([]cancelPairIter, n)
	p.leaves = make([]SliceRun, n*k)
	p.readers = make([]RunReader, n*k)
	p.heads = make([]wio.Pair, n*(k+1))
	p.live = make([]bool, n*k)
	p.tree = make([]int, n*max(k, 1))
}

// Open opens merge i, i below n, over m ≤ k in-memory sorted runs, run(j)
// the j-th in source order, in its room, which the next Open of i reuses, so
// the merge opened before must be done. It returns the merge, which its
// caller closes, and what a reducer reads of it: the merge through the
// job's cancel check.
func (p *PairMerges) Open(i, m int, run func(j int) []wio.Pair) (*MergeIter, PairIter, error) {
	k, w := p.k, max(p.k, 1)
	leaves, readers := p.leaves[i*k:i*k+m], p.readers[i*k:i*k+m]
	for j := range leaves {
		leaves[j].Reset(run(j))
		readers[j] = &leaves[j]
	}
	heads := p.heads[i*(k+1) : i*(k+1)+m : i*(k+1)+m+1]
	mi := &p.merges[i]
	if err := mi.open(readers, p.cmp, heads, p.live[i*k:i*k+m], p.tree[i*w:i*w+max(m, 1)]); err != nil {
		return nil, nil, err
	}
	p.cancels[i] = cancelPairIter{in: mi, lc: p.lc}
	return mi, &p.cancels[i], nil
}

// pairCompare adapts a key comparator to the pair-element shape the
// tournament takes.
func pairCompare(cmp wio.Comparator) func(a, b *wio.Pair) int {
	return func(a, b *wio.Pair) int { return cmp.Compare(a.Key, b.Key) }
}
