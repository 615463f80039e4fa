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
// holds no pointer, so moving it costs the collector nothing. Entries are
// built in input order, so idx ascends; every step that reorders them is
// stable or breaks ties by idx, which is what makes the result the stable
// order.
type sortEntry struct {
	prefix uint64
	idx    uint32
	exact  bool
}

// sortInsertionMax is the batch size up to which the entries are not worth
// building: slices.SortStableFunc insertion-sorts such a batch directly.
const sortInsertionMax = 12

// sortRadixMin is the batch size from which the entries are ordered by
// radix passes over the prefix; below it a pass's 256-bucket bookkeeping
// costs more than the comparisons it saves and the entries are sorted by
// comparison. Measured: see DESIGN.md "Sorting".
const sortRadixMin = 128

var sortScratch = sync.Pool{New: func() any { return new([]sortEntry) }}

// SortStable sorts items by compare, leaving equal elements in their input
// order — exactly the sequence slices.SortStableFunc(items, compare)
// produces. prefix, when not nil, must satisfy the SortPrefixer contract
// against compare. Input already in order is recognised in one scan and
// left untouched; otherwise the entries are sorted — from sortRadixMin of
// them up by radix passes over the prefix, with compare called only inside
// runs of equal prefixes; below that, or with no prefix to tell keys
// apart, by comparison — and each element then moves once, to its final
// position.
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
		// entryOrder is the stable order spelled out on entries: keyOrder (a
		// closure calling a closure is not inlined, and this one runs
		// n log n times), then the index.
		entryOrder := func(a, b sortEntry) int {
			c, decided := a.prefixOrder(b)
			if !decided {
				c = compare(items[a.idx], items[b.idx])
			}
			if c != 0 {
				return c
			}
			return cmp.Compare(a.idx, b.idx)
		}
		if n < sortRadixMin || prefix == nil {
			// Too few entries to repay a pass's 256 buckets, or no digits to
			// sort by: sort by comparison.
			slices.SortFunc(ents, entryOrder)
		} else {
			ents = radixSortEntries(ents, entryOrder)
		}
		applyOrder(items, ents)
	}
	*sp = ents
	sortScratch.Put(sp)
}

// radixSortEntries puts ents, built in input order, into the stable order:
// radix passes on the prefix leave them in prefix order with equal prefixes
// in input order, and only a run of equal prefixes that are not all exact
// is then still undecided, which order — the comparator, then idx —
// settles. The passes work between ents and a second scratch buffer; the
// result is whichever of the two the last pass wrote, and the other goes
// back to the pool. A batch under one prefix has no digit to sort by and is
// one undecided run: it is sorted with order where it stands, and no second
// buffer is taken.
func radixSortEntries(ents []sortEntry, order func(a, b sortEntry) int) []sortEntry {
	// varying has a bit set wherever some two prefixes differ.
	var varying uint64
	for i := range ents {
		varying |= ents[i].prefix ^ ents[0].prefix
	}
	if varying == 0 {
		slices.SortFunc(ents, order)
		return ents
	}
	sp := sortScratch.Get().(*[]sortEntry)
	spare := slices.Grow((*sp)[:0], len(ents))[:len(ents)]
	ents, spare = radixSortPrefix(ents, spare, varying)
	*sp = spare
	sortScratch.Put(sp)
	sortUndecidedRuns(ents, order)
	return ents
}

// radixSortPrefix stably sorts ents by prefix, least significant byte
// first, with one counting-sort pass for each byte of the prefix on which
// some two entries differ — the bytes with a bit set in varying; a byte the
// whole batch shares orders nothing and is skipped. The passes alternate
// between the two buffers: it returns the one that holds the result first,
// the other second.
func radixSortPrefix(ents, spare []sortEntry, varying uint64) (sorted, other []sortEntry) {
	for shift := uint(0); shift < 64; shift += 8 {
		if varying>>shift&0xff == 0 {
			continue
		}
		var next [256]uint32
		for i := range ents {
			next[uint8(ents[i].prefix>>shift)]++
		}
		// Counts become each bucket's first position in the output.
		var sum uint32
		for b, c := range next {
			next[b] = sum
			sum += c
		}
		for i := range ents {
			b := uint8(ents[i].prefix >> shift)
			spare[next[b]] = ents[i]
			next[b]++
		}
		ents, spare = spare, ents
	}
	return ents, spare
}

// sortUndecidedRuns finishes entries already ordered by prefix: a run of
// equal prefixes holding an entry that is not exact is sorted with order.
// Runs whose entries are all exact hold equal keys in input order already.
func sortUndecidedRuns(ents []sortEntry, order func(a, b sortEntry) int) {
	for i := 0; i < len(ents); {
		j, exact := i+1, ents[i].exact
		for j < len(ents) && ents[j].prefix == ents[i].prefix {
			exact = exact && ents[j].exact
			j++
		}
		if !exact && j-i > 1 {
			slices.SortFunc(ents[i:j], order)
		}
		i = j
	}
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
