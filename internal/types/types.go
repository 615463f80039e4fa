// Package types provides the standard writable key/value types used by jobs,
// the Go equivalents of Hadoop's IntWritable, LongWritable, Text, and
// friends. All types are pointer-identified (see wio.Writable) and register
// themselves with the wio type registry under stable Hadoop-flavoured names.
package types

import (
	"bytes"
	"fmt"

	"m3r/internal/wio"
)

func init() {
	wio.RegisterNew[IntWritable]("org.apache.hadoop.io.IntWritable")
	wio.RegisterNew[LongWritable]("org.apache.hadoop.io.LongWritable")
	wio.RegisterNew[DoubleWritable]("org.apache.hadoop.io.DoubleWritable")
	wio.RegisterNew[BoolWritable]("org.apache.hadoop.io.BooleanWritable")
	wio.RegisterNew[Text]("org.apache.hadoop.io.Text")
	wio.RegisterNew[BytesWritable]("org.apache.hadoop.io.BytesWritable")
	wio.Register("org.apache.hadoop.io.NullWritable", func() wio.Writable { return nullInstance })
	wio.RegisterNew[VLongWritable]("org.apache.hadoop.io.VLongWritable")
}

// Registered names, exported so job configurations can reference them.
const (
	IntName    = "org.apache.hadoop.io.IntWritable"
	LongName   = "org.apache.hadoop.io.LongWritable"
	DoubleName = "org.apache.hadoop.io.DoubleWritable"
	BoolName   = "org.apache.hadoop.io.BooleanWritable"
	TextName   = "org.apache.hadoop.io.Text"
	BytesName  = "org.apache.hadoop.io.BytesWritable"
	NullName   = "org.apache.hadoop.io.NullWritable"
	VLongName  = "org.apache.hadoop.io.VLongWritable"
)

// IntWritable is a 32-bit signed integer key/value.
type IntWritable struct{ V int32 }

// NewInt returns an IntWritable holding v.
func NewInt(v int32) *IntWritable { return &IntWritable{V: v} }

// Get returns the held value.
func (w *IntWritable) Get() int32 { return w.V }

// Set replaces the held value.
func (w *IntWritable) Set(v int32) { w.V = v }

// WriteTo implements wio.Writable.
func (w *IntWritable) WriteTo(out *wio.Writer) error { return out.WriteInt32(w.V) }

// ReadFields implements wio.Writable.
func (w *IntWritable) ReadFields(in *wio.Reader) error {
	v, err := in.ReadInt32()
	w.V = v
	return err
}

// CompareTo implements wio.Comparable.
func (w *IntWritable) CompareTo(other wio.Writable) int {
	o := other.(*IntWritable)
	switch {
	case w.V < o.V:
		return -1
	case w.V > o.V:
		return 1
	}
	return 0
}

// HashCode implements wio.Hashable.
func (w *IntWritable) HashCode() uint32 { return uint32(w.V) }

// String implements fmt.Stringer.
func (w *IntWritable) String() string { return fmt.Sprintf("%d", w.V) }

// LongWritable is a 64-bit signed integer key/value.
type LongWritable struct{ V int64 }

// NewLong returns a LongWritable holding v.
func NewLong(v int64) *LongWritable { return &LongWritable{V: v} }

// Get returns the held value.
func (w *LongWritable) Get() int64 { return w.V }

// Set replaces the held value.
func (w *LongWritable) Set(v int64) { w.V = v }

// WriteTo implements wio.Writable.
func (w *LongWritable) WriteTo(out *wio.Writer) error { return out.WriteInt64(w.V) }

// ReadFields implements wio.Writable.
func (w *LongWritable) ReadFields(in *wio.Reader) error {
	v, err := in.ReadInt64()
	w.V = v
	return err
}

// CompareTo implements wio.Comparable.
func (w *LongWritable) CompareTo(other wio.Writable) int {
	o := other.(*LongWritable)
	switch {
	case w.V < o.V:
		return -1
	case w.V > o.V:
		return 1
	}
	return 0
}

// HashCode implements wio.Hashable.
func (w *LongWritable) HashCode() uint32 { return uint32(w.V) ^ uint32(w.V>>32) }

// String implements fmt.Stringer.
func (w *LongWritable) String() string { return fmt.Sprintf("%d", w.V) }

// VLongWritable is a variable-length encoded 64-bit integer.
type VLongWritable struct{ V int64 }

// NewVLong returns a VLongWritable holding v.
func NewVLong(v int64) *VLongWritable { return &VLongWritable{V: v} }

// WriteTo implements wio.Writable.
func (w *VLongWritable) WriteTo(out *wio.Writer) error { return out.WriteVarint(w.V) }

// ReadFields implements wio.Writable.
func (w *VLongWritable) ReadFields(in *wio.Reader) error {
	v, err := in.ReadVarint()
	w.V = v
	return err
}

// CompareTo implements wio.Comparable.
func (w *VLongWritable) CompareTo(other wio.Writable) int {
	o := other.(*VLongWritable)
	switch {
	case w.V < o.V:
		return -1
	case w.V > o.V:
		return 1
	}
	return 0
}

// HashCode implements wio.Hashable.
func (w *VLongWritable) HashCode() uint32 { return uint32(w.V) ^ uint32(w.V>>32) }

// String implements fmt.Stringer.
func (w *VLongWritable) String() string { return fmt.Sprintf("%d", w.V) }

// DoubleWritable is a float64 key/value.
type DoubleWritable struct{ V float64 }

// NewDouble returns a DoubleWritable holding v.
func NewDouble(v float64) *DoubleWritable { return &DoubleWritable{V: v} }

// Get returns the held value.
func (w *DoubleWritable) Get() float64 { return w.V }

// Set replaces the held value.
func (w *DoubleWritable) Set(v float64) { w.V = v }

// WriteTo implements wio.Writable.
func (w *DoubleWritable) WriteTo(out *wio.Writer) error { return out.WriteFloat64(w.V) }

// ReadFields implements wio.Writable.
func (w *DoubleWritable) ReadFields(in *wio.Reader) error {
	v, err := in.ReadFloat64()
	w.V = v
	return err
}

// CompareTo implements wio.Comparable.
func (w *DoubleWritable) CompareTo(other wio.Writable) int {
	o := other.(*DoubleWritable)
	switch {
	case w.V < o.V:
		return -1
	case w.V > o.V:
		return 1
	}
	return 0
}

// String implements fmt.Stringer.
func (w *DoubleWritable) String() string { return fmt.Sprintf("%g", w.V) }

// BoolWritable is a boolean key/value.
type BoolWritable struct{ V bool }

// NewBool returns a BoolWritable holding v.
func NewBool(v bool) *BoolWritable { return &BoolWritable{V: v} }

// WriteTo implements wio.Writable.
func (w *BoolWritable) WriteTo(out *wio.Writer) error { return out.WriteBool(w.V) }

// ReadFields implements wio.Writable.
func (w *BoolWritable) ReadFields(in *wio.Reader) error {
	v, err := in.ReadBool()
	w.V = v
	return err
}

// CompareTo implements wio.Comparable.
func (w *BoolWritable) CompareTo(other wio.Writable) int {
	o := other.(*BoolWritable)
	switch {
	case !w.V && o.V:
		return -1
	case w.V && !o.V:
		return 1
	}
	return 0
}

// String implements fmt.Stringer.
func (w *BoolWritable) String() string { return fmt.Sprintf("%t", w.V) }

// Text is a mutable byte-string, the workhorse key type of Hadoop jobs.
// Like Hadoop's Text it is designed for reuse: Set replaces the contents
// without reallocating when capacity allows, which is exactly the mutation
// pattern that forces M3R to clone outputs unless a job declares
// ImmutableOutput (paper Fig. 4).
type Text struct{ B []byte }

// NewText returns a Text holding a copy of s.
func NewText(s string) *Text { return &Text{B: []byte(s)} }

// String returns the contents as a string.
func (t *Text) String() string { return string(t.B) }

// Set replaces the contents with s, reusing the backing array when possible.
func (t *Text) Set(s string) {
	t.B = append(t.B[:0], s...)
}

// SetBytes replaces the contents with b, reusing the backing array.
func (t *Text) SetBytes(b []byte) {
	t.B = append(t.B[:0], b...)
}

// Len returns the byte length.
func (t *Text) Len() int { return len(t.B) }

// WriteTo implements wio.Writable.
func (t *Text) WriteTo(out *wio.Writer) error { return out.WriteBytes(t.B) }

// ReadFields implements wio.Writable.
func (t *Text) ReadFields(in *wio.Reader) error {
	b, err := in.ReadBytesBuf(t.B)
	if err != nil {
		return err
	}
	t.B = b
	return nil
}

// CompareTo implements wio.Comparable with byte-lexicographic order.
func (t *Text) CompareTo(other wio.Writable) int {
	return bytes.Compare(t.B, other.(*Text).B)
}

// HashCode implements wio.Hashable: FNV-1a over the bytes. Partition
// placement follows from it (§3.2.2.2), so TestTextHashCodeGolden pins the
// values.
func (t *Text) HashCode() uint32 { return wio.HashBytes(t.B) }

// BytesWritable is an opaque byte payload value.
type BytesWritable struct{ B []byte }

// NewBytes returns a BytesWritable holding b (not copied).
func NewBytes(b []byte) *BytesWritable { return &BytesWritable{B: b} }

// WriteTo implements wio.Writable.
func (w *BytesWritable) WriteTo(out *wio.Writer) error { return out.WriteBytes(w.B) }

// ReadFields implements wio.Writable.
func (w *BytesWritable) ReadFields(in *wio.Reader) error {
	b, err := in.ReadBytesBuf(w.B)
	if err != nil {
		return err
	}
	w.B = b
	return nil
}

// CompareTo implements wio.Comparable with byte-lexicographic order.
func (w *BytesWritable) CompareTo(other wio.Writable) int {
	return bytes.Compare(w.B, other.(*BytesWritable).B)
}

// String implements fmt.Stringer.
func (w *BytesWritable) String() string { return fmt.Sprintf("bytes[%d]", len(w.B)) }

// NullWritable is the zero-size singleton placeholder value.
type NullWritable struct{}

var nullInstance = &NullWritable{}

// Null returns the NullWritable singleton.
func Null() *NullWritable { return nullInstance }

// WriteTo implements wio.Writable; it writes nothing.
func (*NullWritable) WriteTo(*wio.Writer) error { return nil }

// ReadFields implements wio.Writable; it reads nothing.
func (*NullWritable) ReadFields(*wio.Reader) error { return nil }

// CompareTo implements wio.Comparable; all NullWritables are equal.
func (*NullWritable) CompareTo(wio.Writable) int { return 0 }

// HashCode implements wio.Hashable.
func (*NullWritable) HashCode() uint32 { return 0 }

// String implements fmt.Stringer.
func (*NullWritable) String() string { return "(null)" }
