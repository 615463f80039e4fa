package engine

import (
	"fmt"
	"sync"

	"m3r/internal/counters"
	"m3r/internal/wio"
)

// combineFoldAt is how many values a key gathers before they are folded
// through the combiner. A key whose fold does not shrink it doubles its own
// threshold, so a combiner that emits what it was given runs over a key's n
// values O(n) times in total, not once per record.
const combineFoldAt = 64

// CombineTable groups one partition's map output by key as it is collected
// and folds a key's values through the job's combiner whenever enough have
// gathered, so that Drain sorts the combined pairs, not every pair the
// mapper emitted.
//
// A key's values are kept in arrival order, and a fold hands the combiner
// what the last fold emitted followed by what arrived since: exactly the
// sequence the stable sort in Combine would have handed it, cut into
// prefixes. For an associative combiner — combine(combine(p) ++ r) equals
// combine(p ++ r), which Hadoop assumes when it combines once per spill —
// Drain returns Combine's output pair for pair; commutativity is not needed.
//
// Keys are found by open addressing on wio.HashCode with the sort comparator
// as equality, so the table is only for jobs whose equal keys hash equal
// (ResolvedJob.CombineByHash). Values are nodes of one arena chained by
// index and recycled through a free list: a slice per key costs an
// allocation per distinct key and a regrowth per doubling. Indexes into
// slots' entries and into nodes are stored plus one, 0 meaning none.
//
// The slots, entries and nodes outlive the table: a table takes them from a
// package pool and a successful Drain clears them — no key, value or slot
// left — and gives them back, so the many tables of a job's map tasks stop
// regrowing them from empty. Arrays past maxArenaLen are left to the
// collector, and so are a failed drain's.
//
// A table belongs to one map task and is not safe for concurrent use.
type CombineTable struct {
	rj  *ResolvedJob
	ctx *TaskContext
	lc  *JobLifecycle
	run ReduceRun

	combineArena
	box  *combineArena // what the arena came from and goes back to, or nil
	free int32

	// The fold in progress: its entry (0 outside a fold, when the combiner's
	// Close may still emit), where its values iterator stands, and what the
	// combiner has emitted so far.
	cur, iterAt int32
	out         valueChain

	emitted int64      // COMBINE_OUTPUT_RECORDS, reported at Drain
	closing []wio.Pair // what the combiner emitted from Close
}

type combineEntry struct {
	key  wio.Writable
	hash uint32
	valueChain
	foldAt int32
}

type valueChain struct{ head, tail, n int32 }

type valueNode struct {
	value wio.Writable
	next  int32
}

// combineArena is a table's growable storage. A pooled one is empty: its
// slots all zero, its entries and nodes of length 0 over cleared arrays.
type combineArena struct {
	slots   []int32
	shift   uint8 // 32 - log2(len(slots))
	entries []combineEntry
	nodes   []valueNode
}

// maxArenaLen is the most entries or nodes an arena may hold and still be
// pooled: a pool of outsized arrays would hold one job's peak for the next.
const maxArenaLen = 1 << 16

// arenaPool holds *combineArena. A sync.Pool, not a free list, so that the
// collector empties it and an idle engine keeps no arena alive.
var arenaPool sync.Pool

// NewCombineTable returns an empty table over rj's combiner, configured,
// for one partition of the map task ctx belongs to. lc may be nil.
func NewCombineTable(rj *ResolvedJob, ctx *TaskContext, lc *JobLifecycle) *CombineTable {
	box, _ := arenaPool.Get().(*combineArena)
	return newCombineTable(rj, ctx, lc, box)
}

// newCombineTable builds the table on box's arena, or on a fresh one when
// box is nil.
func newCombineTable(rj *ResolvedJob, ctx *TaskContext, lc *JobLifecycle, box *combineArena) *CombineTable {
	run := rj.NewCombineRun()
	run.Configure(rj.Job)
	t := &CombineTable{rj: rj, ctx: ctx, lc: lc, run: run, box: box}
	if box != nil {
		t.combineArena, *box = *box, combineArena{}
	} else {
		t.slots, t.shift = make([]int32, 8), 32-3
	}
	return t
}

// takeArena detaches the table's arena, cleared, in its box; nil when the
// arena is past maxArenaLen. The table holds no storage afterwards.
func (t *CombineTable) takeArena() *combineArena {
	a := t.combineArena
	t.combineArena = combineArena{}
	if len(a.entries) > maxArenaLen || len(a.nodes) > maxArenaLen {
		return nil
	}
	clear(a.slots)
	clear(a.entries)
	clear(a.nodes)
	a.entries, a.nodes = a.entries[:0], a.nodes[:0]
	box := t.box
	if box == nil {
		box = new(combineArena)
	}
	*box = a
	return box
}

// probe returns the slot holding key's entry, or the empty slot where it
// belongs (always that, for a nil key). The multiply spreads hashes that
// agree in their low bits — every key of one partition under the stock
// HashPartitioner — over the table.
func (t *CombineTable) probe(hash uint32, key wio.Writable) int {
	i, mask := int((hash*0x9E3779B1)>>t.shift), len(t.slots)-1
	for t.slots[i] != 0 {
		if e := &t.entries[t.slots[i]-1]; key != nil && e.hash == hash && t.rj.SortCmp.Compare(e.key, key) == 0 {
			break
		}
		i = (i + 1) & mask
	}
	return i
}

// Add puts one collected pair into the table; hash is wio.HashCode(key).
// With clone set the caller may reuse both objects afterwards: the value is
// cloned, the key only when it opens a new entry.
func (t *CombineTable) Add(hash uint32, key, value wio.Writable, clone bool) error {
	i := t.probe(hash, key)
	ei := t.slots[i]
	if ei == 0 {
		if clone {
			key = wio.MustClone(key)
		}
		t.entries = append(t.entries, combineEntry{key: key, hash: hash, foldAt: combineFoldAt})
		ei = int32(len(t.entries))
		t.slots[i] = ei
		if 2*len(t.entries) > len(t.slots) {
			// Entries carry their hash: no key is hashed or compared again.
			t.slots = make([]int32, 2*len(t.slots))
			t.shift--
			for j := range t.entries {
				t.slots[t.probe(t.entries[j].hash, nil)] = int32(j + 1)
			}
		}
	}
	if clone {
		value = wio.MustClone(value)
	}
	e := &t.entries[ei-1]
	t.push(&e.valueChain, value)
	if e.n >= e.foldAt {
		return t.fold(ei)
	}
	return nil
}

// push appends v to c in a node off the free list, or a new one.
func (t *CombineTable) push(c *valueChain, v wio.Writable) {
	n := t.free
	if n != 0 {
		t.free = t.nodes[n-1].next
		t.nodes[n-1] = valueNode{value: v}
	} else {
		t.nodes = append(t.nodes, valueNode{value: v})
		n = int32(len(t.nodes))
	}
	if c.tail == 0 {
		c.head = n
	} else {
		t.nodes[c.tail-1].next = n
	}
	c.tail = n
	c.n++
}

// fold runs the combiner over one entry's values and replaces them with
// what it emitted.
func (t *CombineTable) fold(ei int32) error {
	e := &t.entries[ei-1]
	t.ctx.Cells.CombineInputRecords.Increment(int64(e.n))
	t.cur, t.iterAt, t.out = ei, e.head, valueChain{}
	err := t.run.Reduce(e.key, (*tableValues)(t), (*tableCollector)(t), t.ctx)
	t.cur = 0
	if err != nil {
		return err
	}
	t.nodes[e.tail-1].next, t.free = t.free, e.head
	e.valueChain = t.out
	for 2*e.n > e.foldAt {
		e.foldAt *= 2
	}
	return nil
}

// tableValues is the table as the values iterator of the fold in progress.
type tableValues CombineTable

// Next implements mapred.ValueIterator.
func (v *tableValues) Next() (wio.Writable, bool) {
	if v.iterAt == 0 {
		return nil, false
	}
	n := &v.nodes[v.iterAt-1]
	value := n.value
	n.value = nil // the node goes to the free list and should pin nothing
	v.iterAt = n.next
	return value, true
}

// tableCollector is the table as the combiner's output collector.
type tableCollector CombineTable

// Collect implements mapred.OutputCollector. As in Combine, an unmarked
// combiner may reuse its output objects, so they are cloned.
func (c *tableCollector) Collect(key, value wio.Writable) error {
	t := (*CombineTable)(c)
	if !t.rj.CombineImmutable {
		value = wio.MustClone(value)
	}
	t.emitted++
	if t.cur == 0 {
		if !t.rj.CombineImmutable {
			key = wio.MustClone(key)
		}
		t.closing = append(t.closing, wio.Pair{Key: key, Value: value})
		return nil
	}
	// What is emitted stays under the key it was folded for. A combiner
	// that changes the key breaks the sort order of its own output on any
	// engine; here it would be combined again under the wrong key.
	if e := &t.entries[t.cur-1]; t.rj.SortCmp.Compare(key, e.key) != 0 {
		return fmt.Errorf("engine: combiner emitted key %v for the group of key %v", key, e.key)
	}
	t.push(&t.out, value)
	return nil
}

// Drain folds every key once more, closes the combiner and returns the
// combined pairs sorted by key: what Combine returns for the pairs that were
// added, in the order they were added. The table must not be used again.
func (t *CombineTable) Drain() ([]wio.Pair, error) {
	out, err := t.drain()
	if err != nil {
		return nil, err
	}
	if a := t.takeArena(); a != nil {
		arenaPool.Put(a)
	}
	return out, nil
}

// drain is Drain up to giving the arena back.
func (t *CombineTable) drain() ([]wio.Pair, error) {
	total := 0
	for i := range t.entries {
		if err := t.lc.Err(); err != nil {
			return nil, err
		}
		if t.entries[i].n > 0 {
			if err := t.fold(int32(i + 1)); err != nil {
				return nil, err
			}
		}
		total += int(t.entries[i].n)
	}
	out := make([]wio.Pair, 0, total)
	for i := range t.entries {
		for n := t.entries[i].head; n != 0; n = t.nodes[n-1].next {
			out = append(out, wio.Pair{Key: t.entries[i].key, Value: t.nodes[n-1].value})
		}
	}
	SortPairs(out, t.rj.SortCmp)
	if err := t.run.Close(); err != nil {
		return nil, err
	}
	t.ctx.IncrCounter(counters.TaskGroup, counters.CombineOutputRecords, t.emitted)
	return append(out, t.closing...), nil
}
