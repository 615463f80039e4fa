package types

import (
	"bytes"
	"encoding/binary"
	"math"

	"m3r/internal/wio"
)

// Raw comparators for the standard types. They order serialized bytes
// without deserializing, the same optimization Hadoop's WritableComparator
// subclasses provide for its on-disk sorts. The Hadoop engine's spill merge
// uses these when available and falls back to a deserializing comparator
// otherwise.

// TextRawComparator orders serialized Text values lexicographically.
type TextRawComparator struct{}

// Compare implements wio.Comparator.
func (TextRawComparator) Compare(a, b wio.Writable) int { return a.(*Text).CompareTo(b) }

// CompareRaw implements wio.RawComparator. The serialized form is a uvarint
// length followed by the bytes; lengths compare consistently with contents
// only after skipping the prefix.
func (TextRawComparator) CompareRaw(a, b []byte) int {
	la, na := binary.Uvarint(a)
	lb, nb := binary.Uvarint(b)
	if na <= 0 || nb <= 0 {
		panic("types: corrupt serialized Text")
	}
	return bytes.Compare(a[na:na+int(la)], b[nb:nb+int(lb)])
}

// SortPrefix implements wio.SortPrefixer.
func (TextRawComparator) SortPrefix(k wio.Writable) (uint64, bool) {
	return bytesSortPrefix(k.(*Text).B)
}

// SortPrefixRaw implements wio.RawSortPrefixer.
func (TextRawComparator) SortPrefixRaw(k []byte) (uint64, bool) {
	l, n := binary.Uvarint(k)
	if n <= 0 {
		panic("types: corrupt serialized Text")
	}
	return bytesSortPrefix(k[n : n+int(l)])
}

// bytesSortPrefix is the sort prefix of a byte-lexicographic key: its first
// eight bytes, big-endian, zero-padded. Padding makes "ab" and "ab\x00"
// share a prefix, so a key is exact only when it fits and does not end in
// NUL: two such keys with one prefix are the same bytes.
func bytesSortPrefix(b []byte) (uint64, bool) {
	if len(b) >= 8 {
		return binary.BigEndian.Uint64(b), len(b) == 8 && b[7] != 0
	}
	var p uint64
	for i, c := range b {
		p |= uint64(c) << (56 - 8*i)
	}
	return p, len(b) == 0 || b[len(b)-1] != 0
}

// IntRawComparator orders serialized IntWritables numerically.
type IntRawComparator struct{}

// Compare implements wio.Comparator.
func (IntRawComparator) Compare(a, b wio.Writable) int { return a.(*IntWritable).CompareTo(b) }

// CompareRaw implements wio.RawComparator over 4-byte big-endian two's
// complement values: flipping the sign bit yields unsigned comparability.
func (IntRawComparator) CompareRaw(a, b []byte) int {
	ua := binary.BigEndian.Uint32(a) ^ 0x80000000
	ub := binary.BigEndian.Uint32(b) ^ 0x80000000
	switch {
	case ua < ub:
		return -1
	case ua > ub:
		return 1
	}
	return 0
}

// SortPrefix implements wio.SortPrefixer: the sign-flipped value in the high
// half, so a Pair can shift it without losing order.
func (IntRawComparator) SortPrefix(k wio.Writable) (uint64, bool) {
	return uint64(uint32(k.(*IntWritable).V)^0x80000000) << 32, true
}

// SortPrefixRaw implements wio.RawSortPrefixer.
func (IntRawComparator) SortPrefixRaw(k []byte) (uint64, bool) {
	return uint64(binary.BigEndian.Uint32(k)^0x80000000) << 32, true
}

// LongRawComparator orders serialized LongWritables numerically.
type LongRawComparator struct{}

// Compare implements wio.Comparator.
func (LongRawComparator) Compare(a, b wio.Writable) int { return a.(*LongWritable).CompareTo(b) }

// CompareRaw implements wio.RawComparator.
func (LongRawComparator) CompareRaw(a, b []byte) int {
	ua := binary.BigEndian.Uint64(a) ^ 0x8000000000000000
	ub := binary.BigEndian.Uint64(b) ^ 0x8000000000000000
	switch {
	case ua < ub:
		return -1
	case ua > ub:
		return 1
	}
	return 0
}

// SortPrefix implements wio.SortPrefixer.
func (LongRawComparator) SortPrefix(k wio.Writable) (uint64, bool) {
	return uint64(k.(*LongWritable).V) ^ 0x8000000000000000, true
}

// SortPrefixRaw implements wio.RawSortPrefixer.
func (LongRawComparator) SortPrefixRaw(k []byte) (uint64, bool) {
	return binary.BigEndian.Uint64(k) ^ 0x8000000000000000, true
}

// DoubleRawComparator orders serialized DoubleWritables by the IEEE-754
// total order. A naive big-endian byte compare mis-orders every negative
// double (their sign bit makes them compare above all positives, and their
// magnitude bits grow downward); the total-order bit transform — flip all
// bits of negatives, flip only the sign bit of non-negatives — maps doubles
// onto unsigned-comparable keys:
//
//	-NaN < -Inf < … < -0 < +0 < … < +Inf < NaN
//
// Compare applies the same transform to the deserialized values so the
// in-memory (M3R) and raw (Hadoop spill) paths sort identically. This is
// Java's Double.compare order, which Hadoop's DoubleWritable.Comparator
// uses: it differs from CompareTo only on NaN (totally ordered here,
// unordered there) and on -0 < +0.
type DoubleRawComparator struct{}

// Compare implements wio.Comparator with the same total order CompareRaw
// applies to serialized bytes.
func (DoubleRawComparator) Compare(a, b wio.Writable) int {
	return compareUint64(
		totalOrderKey(math.Float64bits(a.(*DoubleWritable).V)),
		totalOrderKey(math.Float64bits(b.(*DoubleWritable).V)),
	)
}

// CompareRaw implements wio.RawComparator over the 8-byte big-endian
// IEEE-754 serialization.
func (DoubleRawComparator) CompareRaw(a, b []byte) int {
	return compareUint64(
		totalOrderKey(binary.BigEndian.Uint64(a)),
		totalOrderKey(binary.BigEndian.Uint64(b)),
	)
}

// SortPrefix implements wio.SortPrefixer: the total-order key is the order.
func (DoubleRawComparator) SortPrefix(k wio.Writable) (uint64, bool) {
	return totalOrderKey(math.Float64bits(k.(*DoubleWritable).V)), true
}

// SortPrefixRaw implements wio.RawSortPrefixer.
func (DoubleRawComparator) SortPrefixRaw(k []byte) (uint64, bool) {
	return totalOrderKey(binary.BigEndian.Uint64(k)), true
}

// totalOrderKey maps IEEE-754 bits onto unsigned-comparable keys: negatives
// (sign bit set) are complemented so larger magnitudes sort lower,
// non-negatives get the sign bit set so they sort above all negatives.
func totalOrderKey(bits uint64) uint64 {
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | (1 << 63)
}

func compareUint64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// RawComparatorFor returns a raw comparator specialized to the named key
// type when one exists, else nil. Engines consult this before falling back
// to deserializing comparison.
func RawComparatorFor(typeName string) wio.RawComparator {
	switch typeName {
	case TextName:
		return TextRawComparator{}
	case IntName:
		return IntRawComparator{}
	case LongName:
		return LongRawComparator{}
	case DoubleName:
		return DoubleRawComparator{}
	case PairName:
		return PairRawComparator{}
	}
	return nil
}
