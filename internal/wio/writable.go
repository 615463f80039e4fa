package wio

import (
	"bytes"
	"fmt"
	"sync"
)

// Writable is the interface every key and value type implements, mirroring
// Hadoop's org.apache.hadoop.io.Writable. Implementations must be pointer
// types: the de-duplicating Encoder identifies repeated objects by pointer
// identity, and RecordReaders mutate values in place exactly like Hadoop's
// "reuse the same object for every record" contract.
type Writable interface {
	// WriteTo serializes the receiver's fields.
	WriteTo(w *Writer) error
	// ReadFields replaces the receiver's fields with deserialized data.
	ReadFields(r *Reader) error
}

// Comparable is a Writable with a total order, mirroring Hadoop's
// WritableComparable. Map output keys must implement it (or the job must
// configure an explicit sort comparator).
type Comparable interface {
	Writable
	// CompareTo returns a negative, zero, or positive number as the
	// receiver sorts before, equal to, or after other. It may panic if
	// other has a different dynamic type, as in Hadoop.
	CompareTo(other Writable) int
}

// Hashable is an optional fast path for partitioning. Types that do not
// implement it are hashed over their serialized form.
type Hashable interface {
	HashCode() uint32
}

// Comparator orders two deserialized writables. It is the unit of
// user-specified sorting and grouping comparators.
type Comparator interface {
	Compare(a, b Writable) int
}

// RawComparator additionally orders serialized representations without
// deserializing, the optimization Hadoop applies during its on-disk sorts.
type RawComparator interface {
	Comparator
	CompareRaw(a, b []byte) int
}

// ComparatorFunc adapts a function to the Comparator interface.
type ComparatorFunc func(a, b Writable) int

// Compare implements Comparator.
func (f ComparatorFunc) Compare(a, b Writable) int { return f(a, b) }

// NaturalOrder is the default comparator: it delegates to the key's own
// CompareTo and panics (like Hadoop's WritableComparator) when the key type
// is not comparable.
type NaturalOrder struct{}

// Compare implements Comparator using the keys' natural order.
func (NaturalOrder) Compare(a, b Writable) int {
	ca, ok := a.(Comparable)
	if !ok {
		panic(fmt.Sprintf("wio: key type %T is not Comparable and no comparator was configured", a))
	}
	return ca.CompareTo(b)
}

// deserializingComparator lifts a Comparator over deserialized values into a
// RawComparator by decoding both operands. This is what Hadoop does when a
// key class registers no raw comparator; it is deliberately the slow path.
type deserializingComparator struct {
	cmp     Comparator
	factory func() Writable
}

// NewDeserializingComparator returns a RawComparator that decodes both
// serialized operands with fresh instances from factory and compares them
// with cmp.
func NewDeserializingComparator(cmp Comparator, factory func() Writable) RawComparator {
	return &deserializingComparator{cmp: cmp, factory: factory}
}

func (d *deserializingComparator) Compare(a, b Writable) int { return d.cmp.Compare(a, b) }

func (d *deserializingComparator) CompareRaw(a, b []byte) int {
	wa, wb := d.factory(), d.factory()
	if err := Unmarshal(a, wa); err != nil {
		panic(fmt.Sprintf("wio: raw compare decode: %v", err))
	}
	if err := Unmarshal(b, wb); err != nil {
		panic(fmt.Sprintf("wio: raw compare decode: %v", err))
	}
	return d.cmp.Compare(wa, wb)
}

// writerPool and readerPool hold the slice-mode state behind Marshal,
// Unmarshal, Clone, Equal and HashCode. A pooled Writer keeps the scratch it
// grew (cut to length 0) between uses; a pooled Reader keeps nothing.
var (
	writerPool = sync.Pool{New: func() any { return new(Writer) }}
	readerPool = sync.Pool{New: func() any { return new(Reader) }}
)

// marshalScratch serializes v into a pooled Writer's own scratch. The caller
// reads w.Bytes() and then hands the writer back with putWriter.
func marshalScratch(v Writable) (*Writer, error) {
	w := writerPool.Get().(*Writer)
	w.ResetBytes(w.out[:0])
	if err := v.WriteTo(w); err != nil {
		putWriter(w)
		return nil, err
	}
	return w, nil
}

func putWriter(w *Writer) {
	w.out = w.out[:0]
	writerPool.Put(w)
}

// Marshal serializes a single writable to a fresh byte slice.
func Marshal(v Writable) ([]byte, error) {
	w, err := marshalScratch(v)
	if err != nil {
		return nil, err
	}
	b := append([]byte(nil), w.out...)
	putWriter(w)
	return b, nil
}

// AppendMarshal appends v's serialized form to dst and returns the extended
// slice; with enough spare capacity in dst it allocates nothing. On error
// dst is returned unchanged.
func AppendMarshal(dst []byte, v Writable) ([]byte, error) {
	w := writerPool.Get().(*Writer)
	scratch := w.out
	w.ResetBytes(dst)
	err := v.WriteTo(w)
	out := w.out
	w.out = scratch
	putWriter(w)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// Unmarshal deserializes b into v, which must have the matching type.
func Unmarshal(b []byte, v Writable) error { return unmarshal(b, v, false) }

// unmarshal is Unmarshal through a reader that is transient or not
// (Reader.SetTransient).
func unmarshal(b []byte, v Writable, transient bool) error {
	r := readerPool.Get().(*Reader)
	r.ResetBytes(b)
	r.SetTransient(transient)
	err := v.ReadFields(r)
	r.ResetBytes(nil)
	r.SetTransient(false)
	readerPool.Put(r)
	return err
}

// HashCode returns a partitioning hash for v: the type's own HashCode when
// available, else the hash of the serialized form.
func HashCode(v Writable) uint32 {
	if h, ok := v.(Hashable); ok {
		return h.HashCode()
	}
	w, err := marshalScratch(v)
	if err != nil {
		panic(fmt.Sprintf("wio: hashing %T: %v", v, err))
	}
	h := HashBytes(w.out)
	putWriter(w)
	return h
}

// HashBytes is 32-bit FNV-1a, the values hash/fnv gives.
func HashBytes(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// Equal reports whether two writables have identical serialized forms. It is
// the engine's substitute for Java equals() when grouping values.
func Equal(a, b Writable) bool {
	wa, err := marshalScratch(a)
	if err != nil {
		return false
	}
	wb, err := marshalScratch(b)
	if err != nil {
		putWriter(wa)
		return false
	}
	eq := bytes.Equal(wa.out, wb.out)
	putWriter(wa)
	putWriter(wb)
	return eq
}

// Clone deep-copies v through a serialization round trip. This is the cost
// M3R pays for every output pair of a mapper or reducer that has not
// declared ImmutableOutput (§4.1 of the paper); keeping it a full round trip
// rather than a type-specific fast path preserves that cost structure. Only
// the intermediate buffer is recycled: every field is still written out and
// read back into a fresh object, an exact allocation of its own, as are its
// bodies — what a cache may keep.
func Clone(v Writable) (Writable, error) { return clone(v, false) }

// CloneTransient is Clone for a copy that dies with the job: the same round
// trip into a fresh object, taken from its class's shared slab, whose float
// bodies are cut from the shared float slab (Reader.SetTransient).
func CloneTransient(v Writable) (Writable, error) { return clone(v, true) }

func clone(v Writable, transient bool) (Writable, error) {
	e, err := entryOf(v)
	if err != nil {
		return nil, err
	}
	w, err := marshalScratch(v)
	if err != nil {
		return nil, err
	}
	defer putWriter(w)
	var out Writable
	if transient && e.slab != nil {
		out = sharedObject(e.id, e.slab)
	} else {
		out = e.new()
	}
	if err := unmarshal(w.out, out, transient); err != nil {
		return nil, err
	}
	return out, nil
}

// MustClone is Clone, panicking on error. Engines use it on pairs that have
// already been serialized once, so failure indicates a programming error.
func MustClone(v Writable) Writable { return mustClone(v, false) }

// MustCloneTransient is CloneTransient, panicking on error as MustClone
// does.
func MustCloneTransient(v Writable) Writable { return mustClone(v, true) }

func mustClone(v Writable, transient bool) Writable {
	out, err := clone(v, transient)
	if err != nil {
		panic(fmt.Sprintf("wio: clone %T: %v", v, err))
	}
	return out
}

// Pair is a key/value pair as it moves through shuffle, cache and store.
type Pair struct {
	Key   Writable
	Value Writable
}
