package types

import (
	"encoding/binary"
	"fmt"
	"strings"

	"m3r/internal/wio"
)

// Pair is the composite writable key: two writables compared
// lexicographically — first component, then second — the shape of every
// secondary-sort and block-coordinate key (the matrix workloads' (row, col)
// block indices, a secondary sort's (group, order) pair). Its serialized
// form is self-describing: each component travels as its registered class
// name plus its length-prefixed encoding, which is what lets
// PairRawComparator order serialized pairs without deserializing — so
// composite-key jobs ride the raw-compare fast path in both engines exactly
// like the scalar key types.
//
// Components must themselves be registered writables. Comparison requires
// the components to be comparable (a registered raw comparator, or
// wio.Comparable), like any map-output key.
type Pair struct {
	First  wio.Writable
	Second wio.Writable
}

// PairName is Pair's registered name.
const PairName = "m3r.io.PairWritable"

func init() {
	wio.RegisterNew[Pair](PairName)
}

// NewPair returns a Pair over the two components.
func NewPair(first, second wio.Writable) *Pair {
	return &Pair{First: first, Second: second}
}

// WriteTo implements wio.Writable: for each component, the registered class
// name then the length-prefixed component encoding.
func (p *Pair) WriteTo(out *wio.Writer) error {
	for _, c := range [2]wio.Writable{p.First, p.Second} {
		if c == nil {
			return fmt.Errorf("types: Pair with nil component cannot be serialized")
		}
		name, err := wio.NameOf(c)
		if err != nil {
			return err
		}
		blob, err := wio.Marshal(c)
		if err != nil {
			return err
		}
		if err := out.WriteString(name); err != nil {
			return err
		}
		if err := out.WriteBytes(blob); err != nil {
			return err
		}
	}
	return nil
}

// ReadFields implements wio.Writable, reusing a component in place when its
// type matches (the Hadoop object-reuse contract) and constructing a fresh
// one from the registry otherwise.
func (p *Pair) ReadFields(in *wio.Reader) error {
	for _, slot := range [2]*wio.Writable{&p.First, &p.Second} {
		name, err := in.ReadString()
		if err != nil {
			return err
		}
		blob, err := in.ReadBytes()
		if err != nil {
			return err
		}
		c := *slot
		if c == nil || !isNamed(c, name) {
			if c, err = wio.New(name); err != nil {
				return err
			}
		}
		if err := wio.Unmarshal(blob, c); err != nil {
			return err
		}
		*slot = c
	}
	return nil
}

// isNamed reports whether v's registered name is name.
func isNamed(v wio.Writable, name string) bool {
	n, err := wio.NameOf(v)
	return err == nil && n == name
}

// CompareTo implements wio.Comparable with exactly PairRawComparator's
// order, so the in-memory (M3R) and raw (Hadoop spill) sort paths agree.
func (p *Pair) CompareTo(other wio.Writable) int {
	return PairRawComparator{}.Compare(p, other)
}

// HashCode implements wio.Hashable by combining the component hashes, so
// hash partitioning of composite keys does not pay a serialization per pair.
func (p *Pair) HashCode() uint32 {
	return 31*wio.HashCode(p.First) + wio.HashCode(p.Second)
}

// String implements fmt.Stringer.
func (p *Pair) String() string { return fmt.Sprintf("(%v, %v)", p.First, p.Second) }

// PairRawComparator orders serialized Pairs lexicographically by component
// — first, then second — without deserializing when the component type
// itself has a raw comparator. Heterogeneous component types (legal, if
// unusual, since Pair is self-describing) order by class name first, so the
// order is total over everything Pair can serialize; for the homogeneous
// keys of a normal job the class comparison always ties and the component
// comparators decide. The deserialized path (Compare) applies the identical
// rules — including the component raw comparators' orders, e.g. the
// IEEE-754 total order of Double components — so both engines sort
// composite keys the same whether they compare objects or bytes.
type PairRawComparator struct{}

// Compare implements wio.Comparator over deserialized Pairs.
func (PairRawComparator) Compare(a, b wio.Writable) int {
	pa, pb := a.(*Pair), b.(*Pair)
	if c := compareComponent(pa.First, pb.First); c != 0 {
		return c
	}
	return compareComponent(pa.Second, pb.Second)
}

// compareComponent orders two deserialized components: class name first,
// then the class's registered raw comparator when it has one (keeping the
// order identical to the raw path), else the component's natural order.
func compareComponent(a, b wio.Writable) int {
	an, err := wio.NameOf(a)
	if err != nil {
		panic(fmt.Sprintf("types: Pair component %T is not registered", a))
	}
	bn, err := wio.NameOf(b)
	if err != nil {
		panic(fmt.Sprintf("types: Pair component %T is not registered", b))
	}
	if c := strings.Compare(an, bn); c != 0 {
		return c
	}
	if raw := RawComparatorFor(an); raw != nil {
		return raw.Compare(a, b)
	}
	ca, ok := a.(wio.Comparable)
	if !ok {
		panic(fmt.Sprintf("types: Pair component %T is not comparable", a))
	}
	return ca.CompareTo(b)
}

// CompareRaw implements wio.RawComparator over the serialized form.
func (PairRawComparator) CompareRaw(a, b []byte) int {
	for i := 0; i < 2; i++ {
		var an, bn string
		var ab, bb []byte
		an, ab, a = pairField(a)
		bn, bb, b = pairField(b)
		if c := strings.Compare(an, bn); c != 0 {
			return c
		}
		if c := compareRawComponent(an, ab, bb); c != 0 {
			return c
		}
	}
	return 0
}

// SortPrefix implements wio.SortPrefixer with the first component's prefix.
// It is never exact: the second component still has to be compared.
func (PairRawComparator) SortPrefix(k wio.Writable) (uint64, bool) {
	first := k.(*Pair).First
	name, err := wio.NameOf(first)
	if err != nil {
		panic(fmt.Sprintf("types: Pair component %T is not registered", first))
	}
	slot, pc := pairPrefixSlot(name)
	if pc == nil {
		return slot << 60, false
	}
	p, _ := pc.SortPrefix(first)
	return slot<<60 | p>>4, false
}

// SortPrefixRaw implements wio.RawSortPrefixer.
func (PairRawComparator) SortPrefixRaw(k []byte) (uint64, bool) {
	name, blob, _ := pairField(k)
	slot, pc := pairPrefixSlot(name)
	if pc == nil {
		return slot << 60, false
	}
	p, _ := pc.SortPrefixRaw(blob)
	return slot<<60 | p>>4, false
}

// scalarPrefixer is what the four scalar raw comparators offer a Pair.
type scalarPrefixer interface {
	wio.SortPrefixer
	wio.RawSortPrefixer
}

// pairPrefixSlot ranks a first component's class in class-name order — the
// order Pairs compare by before they look at the component — and returns
// the class's prefixer, if it has one. The rank takes the prefix's top four
// bits and the component's own prefix, shifted, the rest: classes with a
// prefixer get the odd slots, and any other class falls in the even slot
// between its neighbours with a component prefix of zero, so two Pairs
// whose first components differ in class never order against the names.
func pairPrefixSlot(name string) (slot uint64, pc scalarPrefixer) {
	switch name {
	case DoubleName:
		return 1, DoubleRawComparator{}
	case IntName:
		return 3, IntRawComparator{}
	case LongName:
		return 5, LongRawComparator{}
	case TextName:
		return 7, TextRawComparator{}
	}
	for _, prefixed := range [...]string{DoubleName, IntName, LongName, TextName} {
		if name > prefixed {
			slot += 2
		}
	}
	return slot, nil
}

// pairField parses one serialized component — class name, encoded blob —
// returning the remainder. The layout is WriteString then WriteBytes: a
// uvarint length before each. It panics on corrupt input, as the scalar raw
// comparators do.
func pairField(b []byte) (name string, blob []byte, rest []byte) {
	nl, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < nl {
		panic("types: corrupt serialized Pair")
	}
	name, b = string(b[n:n+int(nl)]), b[n+int(nl):]
	bl, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < bl {
		panic("types: corrupt serialized Pair")
	}
	return name, b[n : n+int(bl)], b[n+int(bl):]
}

// compareRawComponent orders two same-class serialized components: the
// class's raw comparator when it has one, else a deserialize-and-compare
// round trip (Hadoop's slow path, kept for component types that never
// registered a raw order).
func compareRawComponent(name string, a, b []byte) int {
	if raw := RawComparatorFor(name); raw != nil {
		return raw.CompareRaw(a, b)
	}
	wa, err := wio.New(name)
	if err != nil {
		panic(fmt.Sprintf("types: Pair component class %q not registered", name))
	}
	wb, _ := wio.New(name)
	if err := wio.Unmarshal(a, wa); err != nil {
		panic(fmt.Sprintf("types: Pair component decode: %v", err))
	}
	if err := wio.Unmarshal(b, wb); err != nil {
		panic(fmt.Sprintf("types: Pair component decode: %v", err))
	}
	ca, ok := wa.(wio.Comparable)
	if !ok {
		panic(fmt.Sprintf("types: Pair component %q is not comparable", name))
	}
	return ca.CompareTo(wb)
}
