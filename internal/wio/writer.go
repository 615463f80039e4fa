// Package wio implements the binary data model that every key and value in
// this repository flows through: a Hadoop Writable-style serialization layer.
//
// It provides
//
//   - Writer / Reader: DataOutput/DataInput-like primitive codecs,
//   - Writable: the interface all keys/values implement,
//   - a type registry so streams can name types (the moral equivalent of
//     Java class names in Hadoop's SequenceFiles and shuffle),
//   - Encoder / Decoder: a stream codec with optional de-duplication. The
//     de-duplication reproduces the X10 serialization behaviour the M3R
//     paper relies on (§3.2.2.3): if the same object is written twice, the
//     second write emits a back-reference, and the decoder returns aliases
//     of a single reconstructed object.
package wio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"
)

// Writer wraps an io.Writer with primitive encoding methods in the style of
// Hadoop's DataOutput. All multi-byte integers are big-endian; variable
// length integers use zig-zag varint encoding.
//
// A Writer has two modes emitting the same bytes. Stream mode (NewWriter,
// Reset) forwards to an io.Writer. Slice mode (ResetBytes) appends to a byte
// slice the Writer owns until Bytes hands it back: every primitive is then
// an append with no interface call and no allocation beyond the slice's own
// growth, which is what Marshal, Clone and the run encoders sit on. The zero
// Writer is a slice-mode writer over a nil slice.
type Writer struct {
	w     io.Writer // nil in slice mode
	out   []byte    // slice-mode destination
	buf   [chunkBytes]byte
	count int64
}

// chunkBytes sizes a Writer's staging array: room for any one primitive,
// and for the 64 doubles a stream-mode WriteFloat64s moves per call on the
// underlying stream. It is a field, not a local, because a local would
// escape through the io.Writer call and cost an allocation per array.
const chunkBytes = 64 * 8

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// Count reports the total number of bytes written so far.
func (w *Writer) Count() int64 { return w.count }

// Reset re-targets the writer at a new underlying stream and zeroes Count.
func (w *Writer) Reset(out io.Writer) {
	w.w, w.out = out, nil
	w.count = 0
}

// ResetBytes switches the writer to slice mode, appending to dst (which may
// be nil, or a recycled buffer cut to dst[:0]), and zeroes Count.
func (w *Writer) ResetBytes(dst []byte) {
	w.w, w.out = nil, dst
	w.count = 0
}

// Bytes returns the slice-mode destination: the dst given to ResetBytes
// followed by the Count bytes written since. It is nil in stream mode.
func (w *Writer) Bytes() []byte { return w.out }

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	if w.w == nil {
		w.out = append(w.out, p...)
		w.count += int64(len(p))
		return len(p), nil
	}
	n, err := w.w.Write(p)
	w.count += int64(n)
	return n, err
}

// WriteByte writes a single byte.
func (w *Writer) WriteByte(b byte) error {
	if w.w == nil {
		w.out = append(w.out, b)
		w.count++
		return nil
	}
	w.buf[0] = b
	_, err := w.Write(w.buf[:1])
	return err
}

// WriteBool writes a boolean as one byte.
func (w *Writer) WriteBool(v bool) error {
	if v {
		return w.WriteByte(1)
	}
	return w.WriteByte(0)
}

// WriteUint32 writes a fixed-width big-endian uint32.
func (w *Writer) WriteUint32(v uint32) error {
	if w.w == nil {
		w.out = binary.BigEndian.AppendUint32(w.out, v)
		w.count += 4
		return nil
	}
	binary.BigEndian.PutUint32(w.buf[:4], v)
	_, err := w.Write(w.buf[:4])
	return err
}

// WriteInt32 writes a fixed-width big-endian int32.
func (w *Writer) WriteInt32(v int32) error { return w.WriteUint32(uint32(v)) }

// WriteUint64 writes a fixed-width big-endian uint64.
func (w *Writer) WriteUint64(v uint64) error {
	if w.w == nil {
		w.out = binary.BigEndian.AppendUint64(w.out, v)
		w.count += 8
		return nil
	}
	binary.BigEndian.PutUint64(w.buf[:8], v)
	_, err := w.Write(w.buf[:8])
	return err
}

// WriteInt64 writes a fixed-width big-endian int64.
func (w *Writer) WriteInt64(v int64) error { return w.WriteUint64(uint64(v)) }

// WriteFloat64 writes an IEEE-754 double.
func (w *Writer) WriteFloat64(v float64) error {
	return w.WriteUint64(math.Float64bits(v))
}

// WriteFloat64s writes vs as len(vs) IEEE-754 doubles: exactly the bytes of
// one WriteFloat64 per element, with no length prefix, in one pass. Slice
// mode grows the destination once; stream mode issues one Write per 64
// elements instead of one per element, after telling a sink that has a Grow
// method how much is coming.
func (w *Writer) WriteFloat64s(vs []float64) error {
	if w.w == nil {
		n := len(w.out)
		w.out = slices.Grow(w.out, 8*len(vs))[:n+8*len(vs)]
		putFloat64s(w.out[n:], vs)
		w.count += int64(8 * len(vs))
		return nil
	}
	if len(vs) > chunkBytes/8 {
		// The array leaves in pieces; a sink that can make room (a
		// spill.Arena, a bytes.Buffer) is told the whole size first, so it
		// grows once instead of under every piece.
		if g, ok := w.w.(interface{ Grow(n int) }); ok {
			g.Grow(8 * len(vs))
		}
	}
	for len(vs) > 0 {
		k := min(len(vs), chunkBytes/8)
		putFloat64s(w.buf[:8*k], vs[:k])
		if _, err := w.Write(w.buf[:8*k]); err != nil {
			return err
		}
		vs = vs[k:]
	}
	return nil
}

// putFloat64s encodes vs big-endian into b, which has room for them. Four
// elements a turn, behind one length check: measured at over twice the
// throughput of the one-element loop (7 vs 16 us per 10 000 doubles), which
// the compiler leaves a bounds check per element in.
func putFloat64s(b []byte, vs []float64) {
	for len(vs) >= 4 && len(b) >= 32 {
		binary.BigEndian.PutUint64(b[0:8], math.Float64bits(vs[0]))
		binary.BigEndian.PutUint64(b[8:16], math.Float64bits(vs[1]))
		binary.BigEndian.PutUint64(b[16:24], math.Float64bits(vs[2]))
		binary.BigEndian.PutUint64(b[24:32], math.Float64bits(vs[3]))
		b, vs = b[32:], vs[4:]
	}
	for _, v := range vs {
		binary.BigEndian.PutUint64(b, math.Float64bits(v))
		b = b[8:]
	}
}

// getFloat64s decodes len(dst) big-endian doubles from b; unrolled like
// putFloat64s, for the same gain.
func getFloat64s(dst []float64, b []byte) {
	for len(dst) >= 4 && len(b) >= 32 {
		dst[0] = math.Float64frombits(binary.BigEndian.Uint64(b[0:8]))
		dst[1] = math.Float64frombits(binary.BigEndian.Uint64(b[8:16]))
		dst[2] = math.Float64frombits(binary.BigEndian.Uint64(b[16:24]))
		dst[3] = math.Float64frombits(binary.BigEndian.Uint64(b[24:32]))
		b, dst = b[32:], dst[4:]
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(b))
		b = b[8:]
	}
}

// WriteVarint writes a zig-zag encoded signed varint.
func (w *Writer) WriteVarint(v int64) error {
	n := binary.PutVarint(w.buf[:], v)
	_, err := w.Write(w.buf[:n])
	return err
}

// WriteUvarint writes an unsigned varint.
func (w *Writer) WriteUvarint(v uint64) error {
	n := binary.PutUvarint(w.buf[:], v)
	_, err := w.Write(w.buf[:n])
	return err
}

// WriteString writes a varint length followed by the raw bytes of s.
func (w *Writer) WriteString(s string) error {
	if err := w.WriteUvarint(uint64(len(s))); err != nil {
		return err
	}
	if w.w == nil {
		w.out = append(w.out, s...)
		w.count += int64(len(s))
		return nil
	}
	if len(s) <= len(w.buf) {
		// Through the staging array: io.WriteString would allocate a copy
		// of s for a sink without a WriteString of its own, once per type
		// name on every encoded stream.
		_, err := w.Write(w.buf[:copy(w.buf[:], s)])
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// WriteBytes writes a varint length followed by the bytes.
func (w *Writer) WriteBytes(b []byte) error {
	if err := w.WriteUvarint(uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// Flush flushes the underlying writer when it supports flushing.
func (w *Writer) Flush() error {
	if f, ok := w.w.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// Reader wraps an io.Reader with primitive decoding methods matching Writer.
//
// Like Writer it has a stream mode (NewReader, Reset) and a slice mode
// (ResetBytes) that decodes straight out of a byte slice; values, Count and
// errors — io.EOF before the first byte of a primitive, io.ErrUnexpectedEOF
// inside one — are the same in both. The zero Reader is an empty slice-mode
// reader, so a Reader can live by value inside a record reader and be
// re-aimed at each record's bytes.
//
// Slice mode copies everything it returns out of the slice, unless the slice
// was given up to the reader (ResetBytesOwned): then a byte body at least as
// long as the floor the caller states, read for a holder that has no
// capacity of its own, is a sub-slice of the input instead of an allocation
// and a copy. Values, Count and errors are those of the copying mode.
//
// A transient Reader (SetTransient) decodes objects that die with the job:
// the fresh []float64 bodies ReadFloat64s makes for them are cut from a
// shared slab instead of allocated one by one. A Reader in a run (StartRun)
// decodes objects that all join one cache entry: their fresh bodies are cut
// from one slab of the run's.
type Reader struct {
	r     io.Reader // nil in slice mode
	data  []byte    // slice-mode source; data[count:] is unread
	count int64
	floor uint64 // owned: the shortest body that may point into data; 0 when data is not the reader's
	// A run's: what is left of its float slab, made at the first fresh
	// body, and the run's bytes not yet given to ResetBytes.
	floats []float64
	run    int
	// buf holds a primitive that stream mode reads, or that slice mode
	// finds cut short; a stream-mode ReadFloat64s reads into its result.
	buf     [8]byte
	aliased bool       // a body returned since the last reset points into data
	bodies  bodySource // where fresh float bodies come from; kept across resets
}

// bodySource says where a Reader's fresh float bodies come from.
type bodySource uint8

const (
	exactBodies     bodySource = iota // each its own allocation
	transientBodies                   // cut from a shared slab (SetTransient)
	runBodies                         // cut from the run's slab (StartRun)
)

// OwnedFloor is the floor for an input that is only partly the values': a
// chunk handed over from a recycled arena or a pooled read window, which a
// body below the floor does not claim. A value that points into such a
// chunk keeps the whole chunk alive and out of its pool, which a key of a
// few bytes must not do to a chunk of many kilobytes — a stream of short
// words gives every chunk back — and the saving shrinks with the body
// (BenchmarkDecodePair: 2 KiB values decode in an eighth of the copying
// mode's time, 256-byte ones in under half of it). An input that belongs to
// one block of values alone, and lives exactly as long as they do, takes
// floor 0: every body is a view.
const OwnedFloor = 256

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Count reports the total number of bytes consumed so far.
func (r *Reader) Count() int64 { return r.count }

// Reset re-targets the reader at a new underlying stream and zeroes Count.
func (r *Reader) Reset(in io.Reader) {
	r.r, r.data = in, nil
	r.count = 0
	r.floor, r.aliased = 0, false
}

// ResetBytes switches the reader to slice mode over b and zeroes Count. The
// reader never writes to b and copies everything it returns out of it.
func (r *Reader) ResetBytes(b []byte) {
	r.r, r.data = nil, b
	r.count = 0
	r.floor, r.aliased = 0, false
	r.run -= min(len(b), r.run)
}

// ResetBytesOwned is ResetBytes over a slice the caller gives up: the reader
// still never writes to b, but a non-empty byte body of at least floor bytes
// read for a holder without capacity (ReadBytes, ReadBytesBuf of an empty
// buffer) is returned as b[i:j:j] — capacity clipped to the body, so an
// append to it reallocates instead of running into the bytes behind it. The
// floor is the caller's statement of what b is: OwnedFloor for a chunk that
// a short body must not pin, 0 for a buffer that is one block's alone. Once
// Aliased reports true, b belongs to the values decoded from it: the caller
// may neither write to it nor reuse it.
func (r *Reader) ResetBytesOwned(b []byte, floor int) {
	r.ResetBytes(b)
	r.floor = uint64(max(floor, 1))
}

// SetTransient says whether what r decodes dies with the job, so that a
// fresh []float64 body ReadFloat64s makes is cut, capacity clipped to its
// length, from a shared slab of bodies that die with the job
// (transientFloats). It lasts across Reset and ResetBytes, and ends a run
// (StartRun), letting go of its slab. A site whose objects a cache may keep
// leaves it off: a kept body must not keep transient ones alive.
func (r *Reader) SetTransient(on bool) {
	r.bodies, r.floats, r.run = exactBodies, nil, 0
	if on {
		r.bodies = transientBodies
	}
}

// StartRun says the next n bytes r is aimed at, by ResetBytes or
// ResetBytesOwned, are one run whose decoded objects all join one cache
// entry, so that the fresh []float64 bodies ReadFloat64s makes for them are
// cut, capacity clipped to their length, from one slab of the run's. The
// slab is made at the first fresh body, as long as the doubles the run's
// unread bytes can hold: a run that decodes no double makes none, and the
// bodies of a run never need more than its slab — each consumes 8 of those
// bytes a double — so a slab never outgrows its run. A body that finds the
// slab short (the run was longer than n said) takes a fresh slab of what
// is left. The run lasts until the next StartRun or SetTransient; a slab
// pins every body cut from it, so only a site whose objects live and die
// together starts one.
func (r *Reader) StartRun(n int) {
	r.bodies, r.floats, r.run = runBodies, nil, max(n, 0)
}

// Aliased reports whether a value returned since the last reset points into
// the slice given to ResetBytesOwned.
func (r *Reader) Aliased() bool { return r.aliased }

// Remaining reports the unread bytes of a slice-mode reader (0 in stream
// mode, where the end is only known by reading it).
func (r *Reader) Remaining() int {
	if r.r != nil {
		return 0
	}
	return len(r.data) - int(r.count)
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.r == nil {
		if r.count >= int64(len(r.data)) {
			return 0, io.EOF
		}
		n := copy(p, r.data[r.count:])
		r.count += int64(n)
		return n, nil
	}
	n, err := r.r.Read(p)
	r.count += int64(n)
	return n, err
}

func (r *Reader) readFull(p []byte) error {
	if r.r == nil {
		n := copy(p, r.data[r.count:])
		r.count += int64(n)
		switch {
		case n == len(p):
			return nil
		case n == 0:
			return io.EOF
		}
		return io.ErrUnexpectedEOF
	}
	n, err := io.ReadFull(r.r, p)
	r.count += int64(n)
	return err
}

// ReadByte reads a single byte. It implements io.ByteReader.
func (r *Reader) ReadByte() (byte, error) {
	if r.r == nil {
		if r.count >= int64(len(r.data)) {
			return 0, io.EOF
		}
		b := r.data[r.count]
		r.count++
		return b, nil
	}
	if err := r.readFull(r.buf[:1]); err != nil {
		return 0, err
	}
	return r.buf[0], nil
}

// ReadBool reads a boolean written by WriteBool.
func (r *Reader) ReadBool() (bool, error) {
	b, err := r.ReadByte()
	return b != 0, err
}

// ReadUint32 reads a fixed-width big-endian uint32.
func (r *Reader) ReadUint32() (uint32, error) {
	if r.r == nil && int64(len(r.data))-r.count >= 4 {
		v := binary.BigEndian.Uint32(r.data[r.count:])
		r.count += 4
		return v, nil
	}
	if err := r.readFull(r.buf[:4]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(r.buf[:4]), nil
}

// ReadInt32 reads a fixed-width big-endian int32.
func (r *Reader) ReadInt32() (int32, error) {
	v, err := r.ReadUint32()
	return int32(v), err
}

// ReadUint64 reads a fixed-width big-endian uint64.
func (r *Reader) ReadUint64() (uint64, error) {
	if r.r == nil && int64(len(r.data))-r.count >= 8 {
		v := binary.BigEndian.Uint64(r.data[r.count:])
		r.count += 8
		return v, nil
	}
	if err := r.readFull(r.buf[:8]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(r.buf[:8]), nil
}

// ReadInt64 reads a fixed-width big-endian int64.
func (r *Reader) ReadInt64() (int64, error) {
	v, err := r.ReadUint64()
	return int64(v), err
}

// ReadFloat64 reads an IEEE-754 double.
func (r *Reader) ReadFloat64() (float64, error) {
	v, err := r.ReadUint64()
	return math.Float64frombits(v), err
}

// ReadFloat64s reads count doubles written by WriteFloat64s (or by that
// many WriteFloat64 calls) into dst, reusing its capacity, and returns the
// elements read: all of them, or on error the ones before it, with the
// error and Count one ReadFloat64 per element would have produced — io.EOF
// when the input ends between elements, io.ErrUnexpectedEOF inside one.
//
// The count usually comes off the wire, so this is where it is checked: one
// that fails CheckLen is refused before anything is allocated or consumed,
// and in slice mode a count the bytes left cannot hold allocates only for
// the elements that are there.
func (r *Reader) ReadFloat64s(dst []float64, count uint64) ([]float64, error) {
	n, err := CheckLen(count, 8)
	if err != nil {
		return dst[:0], err
	}
	if r.r == nil {
		rest := len(r.data) - int(r.count)
		if 8*n <= rest {
			dst = r.resizeFloat64s(dst, n)
			getFloat64s(dst, r.data[r.count:])
			r.count += int64(8 * n)
			return dst, nil
		}
		// Truncated, and known to be before allocating for n (as in
		// readBody): decode the whole elements and consume the cut one.
		dst = r.resizeFloat64s(dst, rest/8)
		getFloat64s(dst, r.data[r.count:])
		r.count += int64(rest)
		if rest%8 == 0 {
			return dst, io.EOF
		}
		return dst, io.ErrUnexpectedEOF
	}
	// Stream mode reads the bytes into dst's own memory and turns them into
	// doubles where they lie, element i's 8 bytes into element i: no
	// staging copy, and one Read for the whole array where the stream can.
	dst = r.resizeFloat64s(dst, n)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 8*len(dst))
	got, err := io.ReadFull(r.r, raw)
	r.count += int64(got)
	getFloat64s(dst[:got/8], raw[:got])
	if err != nil {
		if err == io.ErrUnexpectedEOF && got%8 == 0 {
			err = io.EOF // the stream ended between two elements
		}
		return dst[:got/8], err
	}
	return dst, nil
}

// resizeFloat64s returns s at length n, reusing its capacity, or a fresh
// body: a transient reader's from the shared float slab, a run's from the
// run's slab.
func (r *Reader) resizeFloat64s(s []float64, n int) []float64 {
	switch {
	case cap(s) >= n:
		return s[:n]
	case r.bodies == transientBodies:
		return transientFloats(n)
	case r.bodies == runBodies:
		if len(r.floats) < n {
			r.floats = make([]float64, max(n, (r.Remaining()+r.run)/8))
		}
		s, r.floats = r.floats[:n:n], r.floats[n:]
		return s
	}
	return make([]float64, n)
}

// ReadVarint reads a zig-zag encoded signed varint.
func (r *Reader) ReadVarint() (int64, error) {
	ux, err := r.ReadUvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

var errVarintOverflow = errors.New("wio: varint overflows a 64-bit integer")

// ReadUvarint reads an unsigned varint. It is binary.ReadUvarint over the
// reader's own ReadByte, so slice mode pays no interface call per byte.
func (r *Reader) ReadUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return x, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return x, errVarintOverflow
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return x, errVarintOverflow
}

// maxLen guards length prefixes against corrupt streams so a flipped bit
// cannot trigger a multi-gigabyte allocation.
const maxLen = 1 << 30

// CheckLen bounds an element count read off the wire before anything is
// allocated for it: n elements of elemBytes each may not exceed the limit
// every length prefix in this package is held to. It returns n as an int.
// ReadFloat64s applies it to its count; Writables that read an array element
// by element call it on the array's length first.
func CheckLen(n uint64, elemBytes int) (int, error) {
	if n > maxLen/uint64(elemBytes) {
		return 0, fmt.Errorf("wio: length %d of %d-byte elements exceeds limit", n, elemBytes)
	}
	return int(n), nil
}

// ReadString reads a string written by WriteString.
func (r *Reader) ReadString() (string, error) {
	n, err := r.readLen()
	if err != nil {
		return "", err
	}
	if r.r == nil && n <= uint64(int64(len(r.data))-r.count) {
		s := string(r.data[r.count : r.count+int64(n)])
		r.count += int64(n)
		return s, nil
	}
	b, err := r.readBody(nil, n)
	return string(b), err
}

// readStringBytes reads a string written by WriteString as bytes valid until
// the next read: a view of the input in slice mode, *buf (grown as needed and
// kept for the next call) in stream mode.
func (r *Reader) readStringBytes(buf *[]byte) ([]byte, error) {
	n, err := r.readLen()
	if err != nil {
		return nil, err
	}
	if r.r == nil && n <= uint64(int64(len(r.data))-r.count) {
		b := r.data[r.count : r.count+int64(n)]
		r.count += int64(n)
		return b, nil
	}
	*buf, err = r.readBody((*buf)[:0], n)
	return *buf, err
}

// ReadBytes reads a byte slice written by WriteBytes into a fresh buffer.
func (r *Reader) ReadBytes() ([]byte, error) {
	return r.ReadBytesBuf(nil)
}

// ReadBytesBuf reads a byte slice written by WriteBytes, reusing buf when it
// has sufficient capacity.
func (r *Reader) ReadBytesBuf(buf []byte) ([]byte, error) {
	n, err := r.readLen()
	if err != nil {
		return nil, err
	}
	return r.readBody(buf, n)
}

// readLen reads and bounds-checks a length prefix.
func (r *Reader) readLen() (uint64, error) {
	n, err := r.ReadUvarint()
	if err != nil {
		return 0, err
	}
	if n > maxLen {
		return 0, fmt.Errorf("wio: length prefix %d exceeds limit", n)
	}
	return n, nil
}

// readBody reads the n bytes behind a length prefix into buf.
func (r *Reader) readBody(buf []byte, n uint64) ([]byte, error) {
	if rest := int64(len(r.data)) - r.count; r.r == nil && n > uint64(rest) {
		// Slice mode knows the body is truncated before allocating for it:
		// same outcome as the stream path, without trusting the prefix.
		r.count += rest
		if rest == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	if r.floor > 0 && cap(buf) == 0 && n >= r.floor {
		// The body is whole (checked above) and the input is the reader's
		// to give away: the value is the bytes where they already are.
		i := r.count
		r.count += int64(n)
		r.aliased = true
		return r.data[i:r.count:r.count], nil
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if err := r.readFull(buf); err != nil {
		return nil, err
	}
	return buf, nil
}
