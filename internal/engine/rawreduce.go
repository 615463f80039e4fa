package engine

import (
	"cmp"
	"fmt"

	"m3r/internal/counters"
	"m3r/internal/mapred"
	"m3r/internal/spill"
	"m3r/internal/wio"
)

// This file is the reduce side of every serialized run: the Hadoop engine's
// fetched segments and map-side spills, and a budgeted M3R job's resident
// segments and spill files. Records stay bytes until the reducer asks (§3.1:
// Hadoop merges map output with raw comparators and builds an object only
// for what the reducer is handed). DESIGN.md "Merge architecture" has the
// reasoning; rawreduce_test.go holds the driver to DriveReduce.

// RecSource is a stream of serialized spill records (spill.Stream or any
// equivalent segment reader) — the merge Source at the raw-record element
// type. A record must stay valid through the source's next Next — the
// tournament compares a replaced head with its successor, and RawMerge.Next's
// caller reads the record its Advance moved past — but may die at the Next
// after that: a spill.Stream recycles its block buffers.
//
// A record whose key is the very slice of the record before it — the same
// first byte, the same length — continues that record's key group. The
// grouped layout hands its records out so (spill.GroupCursor), and the raw
// merge then does no key work for them: a continuation record takes the
// summary and the decoded key of the record before it, replaces its
// source's head without a replay and joins the reducer's group without a
// group test. Since the record before it is still valid, the slice it
// shares cannot have been recycled in between, so a continuation's key is
// always the same bytes.
type RecSource = Source[spill.Rec]

// keyedRec is the raw merge's element.
type keyedRec struct {
	spill.Rec
	// prefix and exact are the key's wio.RawSortPrefixer summary, computed
	// once at the leaf, so that the tournament decides most matches on an
	// integer; 0 and false when the sort order has none.
	prefix uint64
	exact  bool
	// cont marks a record that continues its source's key group (RecSource).
	cont bool
	// key is the decoded key of a job that orders or groups on objects.
	key wio.Writable
}

// RawMerge streams serialized runs merged in the job's sort order, under
// SourceMerge's stability contract, and reduces them.
type RawMerge struct {
	rj       *ResolvedJob
	prefixer wio.RawSortPrefixer // rj.RawSortCmp's, when it has one
	// groupByPrefix reports that equal exact prefixes mean one group: the
	// grouping order is the sort order the prefix summarizes.
	groupByPrefix bool
	// eager reports that the sort or the grouping order has no raw form: the
	// leaves decode every key, once per record, and objects are compared.
	eager bool
	// keys and vals hand out the decoded objects, from slabs no larger than
	// what is still to come: unpulled records the leaves have not pulled,
	// left records the reduce has not consumed, each negative when the runs'
	// length is unknown. kept says the reducer may hand them on to a cache
	// (ImmutableOutput): then they take no shared slab, and the readers
	// below are not transient.
	keys, vals     wio.Alloc
	kept           bool
	unpulled, left int
	m              *SourceMerge[keyedRec]
	keyed          []keyedSource // m's leaves, in source order
	lc             *JobLifecycle

	// Reduce's state. head is the current group's first record, its key
	// bytes copied into headKey: the record itself dies while its source
	// moves on through the group. A group's iterator is drained before the
	// next group starts, so one head and one iterator serve them all.
	rd      wio.Reader
	records *counters.Counter
	head    keyedRec
	headKey []byte
	values  rawValues
}

func (m *RawMerge) compare(a, b *keyedRec) int {
	if m.rj.RawSortCmp == nil {
		return m.rj.SortCmp.Compare(a.key, b.key)
	}
	if c := cmp.Compare(a.prefix, b.prefix); c != 0 || a.exact && b.exact {
		return c
	}
	return m.rj.RawSortCmp.CompareRaw(a.K, b.K)
}

// sameGroup reports whether b belongs to the group a opened.
func (m *RawMerge) sameGroup(a, b *keyedRec) bool {
	if m.rj.RawGroupCmp == nil {
		return m.rj.GroupCmp.Compare(a.key, b.key) == 0
	}
	if m.groupByPrefix && (a.prefix != b.prefix || a.exact && b.exact) {
		return a.prefix == b.prefix
	}
	return m.rj.RawGroupCmp.CompareRaw(a.K, b.K) == 0
}

// decode reads b into a distinct object from a's slabs, with left objects
// still to come: an M3R reducer may keep what it is handed, and keeping it
// keeps the rest of its slab.
func decode(rd *wio.Reader, a *wio.Alloc, left int, b []byte, what string) (wio.Writable, error) {
	w := a.New(left)
	rd.ResetBytes(b)
	if err := w.ReadFields(rd); err != nil {
		return nil, fmt.Errorf("engine: serialized run: decoding %s: %w", what, err)
	}
	return w, nil
}

// keyedSource is the raw merge's leaf: it keys each record of a serialized
// run as it is pulled, once per key group (RawMerge.advance).
type keyedSource struct {
	src RecSource
	m   *RawMerge
	rd  wio.Reader
}

func (s *keyedSource) Next() (keyedRec, bool, error) {
	rec, ok, err := s.src.Next()
	if err != nil || !ok {
		return keyedRec{}, false, err
	}
	var e keyedRec
	err = s.key(&e, rec)
	return e, err == nil, err
}

// key makes e rec keyed: its key summarized for the tournament, and decoded
// when the job orders or groups on objects.
func (s *keyedSource) key(e *keyedRec, rec spill.Rec) error {
	*e = keyedRec{Rec: rec}
	if s.m.prefixer != nil {
		e.prefix, e.exact = s.m.prefixer.SortPrefixRaw(rec.K)
	}
	if s.m.eager {
		var err error
		if e.key, err = decode(&s.rd, &s.m.keys, s.m.unpulled, rec.K, "key"); err != nil {
			return err
		}
		s.m.unpulled = countDown(s.m.unpulled)
	}
	return nil
}

// sameSlice reports whether a and b are one non-empty slice: the same first
// byte and the same length.
func sameSlice(a, b []byte) bool { return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] }

func (s *keyedSource) Close() error { return s.src.Close() }

// OpenRawMerge opens the merge of srcs — sorted runs of one reduce
// partition, keys of class keyClass, in source-task order — as one serial
// Tournament. nrecs is how many records the runs hold together, or negative
// when the caller does not know; it bounds the slabs decoded keys and values
// come from. Reduce polls lc, when non-nil, once per record. It takes
// ownership of srcs: they are closed on error and by Close.
func (rj *ResolvedJob) OpenRawMerge(srcs []RecSource, keyClass string, nrecs int, lc *JobLifecycle) (*RawMerge, error) {
	kept := rj.ReduceImmutable
	keys, err := wio.NewAlloc(keyClass, kept)
	if err != nil {
		CloseAllOnErr(srcs)
		return nil, fmt.Errorf("engine: map output key class: %w", err)
	}
	m := &RawMerge{rj: rj, keys: keys, kept: kept, unpulled: nrecs, left: nrecs, lc: lc, eager: rj.RawSortCmp == nil || rj.RawGroupCmp == nil}
	m.rd.SetTransient(!kept)
	if m.prefixer, _ = rj.RawSortCmp.(wio.RawSortPrefixer); m.prefixer != nil {
		m.groupByPrefix = rj.GroupsBySort
	}
	leaves := make([]Source[keyedRec], len(srcs))
	m.keyed = make([]keyedSource, len(srcs))
	for i, s := range srcs {
		m.keyed[i] = keyedSource{src: s, m: m}
		m.keyed[i].rd.SetTransient(!kept)
		leaves[i] = &m.keyed[i]
	}
	if m.m, err = NewSourceMerge(leaves, m.compare); err != nil {
		return nil, err
	}
	return m, nil
}

// Next returns the next record in merge order. It has already moved the
// record's source on, so the record is good until the following Next — the
// lookbehind a RecSource owes — and a caller that keeps it longer copies it.
func (m *RawMerge) Next() (spill.Rec, bool, error) {
	e, ok := m.m.Peek()
	if !ok {
		return spill.Rec{}, false, nil
	}
	rec := e.Rec
	return rec, true, m.advance()
}

// advance consumes the merge's head: its source's next record takes its
// place in the tournament. A record that continues the consumed head's key
// group — its source's record before it — keeps the head's key, summary and
// decoded key and takes over only the value, without a comparison.
func (m *RawMerge) advance() error {
	t := &m.m.t
	w, _ := t.Winner()
	s := &m.keyed[w]
	rec, ok, err := s.src.Next()
	switch {
	case err != nil:
		return err
	case !ok:
		t.Exhaust(w)
	case sameSlice(rec.K, t.heads[w].K):
		h := t.Continue(w)
		h.V, h.cont = rec.V, true
		if m.eager {
			m.unpulled = countDown(m.unpulled)
		}
	default:
		if err := s.key(t.spare(), rec); err != nil {
			return err
		}
		t.replaceFromSpare(w)
	}
	return nil
}

// Close closes every source, returning the first error.
func (m *RawMerge) Close() error { return m.m.Close() }

// Reduce feeds the merged records group by group into run, emitting through
// out — DriveReduce for serialized input, both engines' reduce tasks' record
// loop and the Hadoop engine's map-side combiner. Values are of class
// valClass. A group boundary is found on the serialized key; the key becomes
// an object once per group and a value once per Next. The merge's lifecycle
// (OpenRawMerge's lc) is polled per record, consumed or drained, so a kill
// lands inside a group however long. combine selects the combiner's counter,
// COMBINE_INPUT_RECORDS, and counts no group, as DriveReduce's does.
func (m *RawMerge) Reduce(valClass string, run ReduceRun, out mapred.OutputCollector, ctx *TaskContext, combine bool) error {
	var err error
	if m.vals, err = wio.NewAlloc(valClass, m.kept); err != nil {
		return fmt.Errorf("engine: map output value class: %w", err)
	}
	groups := &ctx.Cells.ReduceInputGroups
	m.records = &ctx.Cells.ReduceInputRecords
	if combine {
		m.records, groups = &ctx.Cells.CombineInputRecords, nil
	}
	for {
		cur, ok := m.m.Peek()
		if !ok {
			return run.Close()
		}
		if err := m.lc.Err(); err != nil {
			return err
		}
		// The group's first record dies with its source's block, so the
		// head keeps a copy of the key and nothing of the value.
		m.headKey = append(m.headKey[:0], cur.K...)
		m.head = keyedRec{Rec: spill.Rec{K: m.headKey}, prefix: cur.prefix, exact: cur.exact, key: cur.key}
		key := m.head.key
		if key == nil {
			// The groups still to come are no more than the records.
			if key, err = decode(&m.rd, &m.keys, m.left, m.head.K, "key"); err != nil {
				return err
			}
		}
		if groups != nil {
			groups.Increment(1)
		}
		values := &m.values
		*values = rawValues{m: m, first: true}
		if err := run.Reduce(key, values, out, ctx); err != nil {
			return err
		}
		// Drain any values the reducer did not consume so the next group
		// starts at a group boundary; nobody asked for them, so they stay
		// bytes.
		for {
			if _, more := values.advance(false); !more {
				break
			}
		}
		if values.err != nil {
			return values.err
		}
	}
}

// rawValues iterates one group's values straight off the merge, decoding
// each where it stands in the tournament as it is asked for. A record that
// continues the group's source's key group is in the group without a test.
type rawValues struct {
	m     *RawMerge
	err   error
	first bool
	done  bool
}

// Next implements mapred.ValueIterator.
func (g *rawValues) Next() (wio.Writable, bool) { return g.advance(true) }

// advance moves past the group's next value, decoding it when asked to.
func (g *rawValues) advance(decodeValue bool) (wio.Writable, bool) {
	if g.done || g.err != nil {
		return nil, false
	}
	m := g.m
	cur, ok := m.m.Peek()
	if !ok {
		return nil, false
	}
	if g.first {
		g.first = false
	} else if !cur.cont && !m.sameGroup(&m.head, cur) {
		g.done = true
		return nil, false
	}
	if g.err = m.lc.Err(); g.err != nil {
		return nil, false
	}
	var v wio.Writable
	var err error
	if decodeValue {
		v, err = decode(&m.rd, &m.vals, m.left, cur.V, "value")
	}
	if err == nil {
		m.left = countDown(m.left)
		err = m.advance()
	}
	if err != nil {
		g.err = err
		return nil, false
	}
	m.records.Increment(1)
	return v, true
}

// countDown moves a count of records still to come past one, leaving an
// unknown (negative) count, or one a corrupt run has overrun, alone.
func countDown(n int) int {
	if n > 0 {
		return n - 1
	}
	return n
}
