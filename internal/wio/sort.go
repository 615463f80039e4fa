package wio

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// SortPrefixer is an optional interface of a Comparator: an
// order-preserving 64-bit summary of a key, so a sort can order most keys
// by comparing integers it has cached instead of calling Compare.
//
// The contract, for any two keys a and b the comparator accepts:
//
//	prefix(a) < prefix(b)                  ⇒  Compare(a, b) < 0
//	prefix(a) == prefix(b), both exact     ⇒  Compare(a, b) == 0
//
// Equal prefixes that are not both exact say nothing; the sort then asks
// Compare. A comparator without the interface sorts as if every key had
// prefix 0, not exact.
type SortPrefixer interface {
	SortPrefix(k Writable) (prefix uint64, exact bool)
}

// RawSortPrefixer is SortPrefixer's twin over serialized keys, with the
// same contract against CompareRaw. For one key the two must agree.
type RawSortPrefixer interface {
	SortPrefixRaw(k []byte) (prefix uint64, exact bool)
}

// sortEntry stands in for one element while SortStable orders a batch. It
// holds no pointer, so moving it costs the collector nothing, and the
// element's original index is the final tie-break, which makes every entry
// distinct: any correct sort of the entries yields the stable order.
type sortEntry struct {
	prefix uint64
	idx    uint32
	exact  bool
}

// sortInsertionMax is the batch size up to which the entries are not worth
// building: slices.SortStableFunc insertion-sorts such a batch directly.
const sortInsertionMax = 12

var sortScratch = sync.Pool{New: func() any { return new([]sortEntry) }}

// SortStable sorts items by compare, leaving equal elements in their input
// order — exactly the sequence slices.SortStableFunc(items, compare)
// produces. prefix, when not nil, must satisfy the SortPrefixer contract
// against compare. Input already in order is recognised in one scan and
// left untouched; otherwise the entries are sorted and each element then
// moves once, to its final position.
func SortStable[T any](items []T, prefix func(T) (uint64, bool), compare func(a, b T) int) {
	n := len(items)
	if n <= sortInsertionMax || uint64(n) > math.MaxUint32 {
		slices.SortStableFunc(items, compare)
		return
	}
	// keyOrder orders two entries by key alone: by prefix when the prefixes
	// decide, else by compare.
	keyOrder := func(a, b sortEntry) int {
		if c, decided := a.prefixOrder(b); decided {
			return c
		}
		return compare(items[a.idx], items[b.idx])
	}
	sp := sortScratch.Get().(*[]sortEntry)
	ents := slices.Grow((*sp)[:0], n)[:n]
	sorted := true
	for i := range items {
		e := sortEntry{idx: uint32(i)}
		if prefix != nil {
			e.prefix, e.exact = prefix(items[i])
		}
		ents[i] = e
		if sorted && i > 0 && keyOrder(ents[i-1], e) > 0 {
			sorted = false
		}
	}
	if !sorted {
		// keyOrder, spelled out (a closure calling a closure is not inlined,
		// and this one runs n log n times), then the index.
		slices.SortFunc(ents, func(a, b sortEntry) int {
			c, decided := a.prefixOrder(b)
			if !decided {
				c = compare(items[a.idx], items[b.idx])
			}
			if c != 0 {
				return c
			}
			return cmp.Compare(a.idx, b.idx)
		})
		applyOrder(items, ents)
	}
	*sp = ents
	sortScratch.Put(sp)
}

// prefixOrder orders two entries by their prefixes and reports whether that
// decided the order of their keys: it did unless the prefixes are equal and
// not both exact.
func (a sortEntry) prefixOrder(b sortEntry) (c int, decided bool) {
	switch {
	case a.prefix < b.prefix:
		return -1, true
	case a.prefix > b.prefix:
		return 1, true
	}
	return 0, a.exact && b.exact
}

// applyOrder moves items[ents[i].idx] to position i for every i, in place:
// it walks each cycle of the permutation once, so an element is written
// once (plus one temporary per cycle). It rewrites idx as it goes.
func applyOrder[T any](items []T, ents []sortEntry) {
	for i := range ents {
		src := int(ents[i].idx)
		if src == i {
			continue
		}
		first := items[i]
		j := i
		for src != i {
			items[j] = items[src]
			ents[j].idx = uint32(j)
			j = src
			src = int(ents[j].idx)
		}
		items[j] = first
		ents[j].idx = uint32(j)
	}
}
