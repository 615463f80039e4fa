package wio

import (
	"fmt"
	"io"
	"reflect"
	"slices"
)

// Stream tags for Encoder/Decoder messages.
const (
	tagNil  byte = 0 // a nil writable
	tagNew  byte = 1 // a full value: type id (+ name on first use) + payload
	tagRef  byte = 2 // a back-reference to a previously transmitted object
	tagDone byte = 3 // end-of-stream marker written by Close
)

// Encoder serializes writables onto a stream with per-stream type tables
// and optional de-duplication.
//
// With de-duplication enabled, writing the same object (pointer identity)
// twice emits a small back-reference the second time. The matching Decoder
// then returns multiple aliases of a single reconstructed object. This is a
// faithful reproduction of the X10 serialization protocol behaviour that
// gives M3R free de-duplication of broadcast values (§3.2.2.3): a mapper
// that emits one vector block to k co-located reducers costs one copy on
// the wire, not k.
type Encoder struct {
	w *Writer
	// types holds the dynamic types written so far; a type's stream id is its
	// index. A stream carries two or three types, key and value alternating,
	// so a scan over the reflect.Types finds an id without the registry's
	// type → name lookup and a second one by name.
	types  []reflect.Type
	objs   map[Writable]uint64 // identity → id; made on the first insert, so only when dedup is on
	dedup  bool
	nextID uint64
	hits   uint64
}

// NewEncoder returns an Encoder targeting w. When dedup is true, repeated
// objects are transmitted once.
func NewEncoder(w io.Writer, dedup bool) *Encoder {
	return &Encoder{w: NewWriter(w), dedup: dedup}
}

// maxKeptObjs bounds the identity table an Encoder carries from one stream
// to the next: clearing a map costs time in its capacity, not its length, so
// one huge stream must not tax every small one that follows it.
const maxKeptObjs = 1 << 16

// Reset re-targets the encoder at w as a new stream: no type has been named
// and no object seen. The tables keep their memory, which is what pooling an
// Encoder with its frame buys — a map task's encoder remembers thousands of
// objects, and growing that table from empty each task was a twentieth of a
// remote pair's allocated bytes.
func (e *Encoder) Reset(w io.Writer, dedup bool) {
	e.w.Reset(w)
	e.types = e.types[:0]
	if len(e.objs) > maxKeptObjs {
		e.objs = nil
	} else {
		clear(e.objs)
	}
	e.dedup = dedup
	e.nextID, e.hits = 0, 0
}

// Count reports bytes emitted so far.
func (e *Encoder) Count() int64 { return e.w.Count() }

// DedupHits reports how many writes were satisfied by a back-reference.
func (e *Encoder) DedupHits() uint64 { return e.hits }

// Encode writes one value to the stream.
func (e *Encoder) Encode(v Writable) error {
	if v == nil {
		return e.w.WriteByte(tagNil)
	}
	if e.dedup {
		if id, ok := e.objs[v]; ok {
			if err := e.w.WriteByte(tagRef); err != nil {
				return err
			}
			e.hits++
			return e.w.WriteUvarint(id)
		}
	}
	rt := reflect.TypeOf(v)
	tid := slices.Index(e.types, rt)
	first := tid < 0
	var name string
	if first {
		var err error
		if name, err = NameOf(v); err != nil {
			return err
		}
		tid = len(e.types)
		e.types = append(e.types, rt)
	}
	if err := e.w.WriteByte(tagNew); err != nil {
		return err
	}
	if err := e.w.WriteUvarint(uint64(tid)); err != nil {
		return err
	}
	if first {
		if err := e.w.WriteString(name); err != nil {
			return err
		}
	}
	if e.dedup {
		if e.objs == nil {
			e.objs = make(map[Writable]uint64)
		}
		e.objs[v] = e.nextID
		e.nextID++
	}
	return v.WriteTo(e.w)
}

// EncodeUvarint writes a raw unsigned varint into the stream, for callers
// that interleave framing (e.g. partition numbers) with encoded values.
func (e *Encoder) EncodeUvarint(v uint64) error {
	return e.w.WriteUvarint(v)
}

// EncodePair writes a key/value pair.
func (e *Encoder) EncodePair(p Pair) error {
	if err := e.Encode(p.Key); err != nil {
		return err
	}
	return e.Encode(p.Value)
}

// Close writes the end-of-stream marker.
func (e *Encoder) Close() error {
	return e.w.WriteByte(tagDone)
}

// Decoder reads a stream produced by Encoder.
type Decoder struct {
	r     Reader
	types []decType
	objs  []Writable
	name  []byte // a type name read from a stream-mode input
	left  int    // Expect's count of records still to come; negative unless given
	// holders keeps, by class, the slab holders of the types earlier
	// streams named, their slabs dropped, for the next stream's types.
	holders []slabHolder
}

// slabHolder is one class's slab holder, kept across streams.
type slabHolder struct {
	name string
	s    slabSource
}

// decType is a type the stream has named: the registry is asked for its
// class once, when the name arrives, not once per object, and the type's
// objects come from its own allocator.
type decType struct {
	name  string
	alloc Alloc
}

// NewDecoder returns a Decoder consuming from r.
func NewDecoder(r io.Reader) *Decoder {
	d := &Decoder{left: -1}
	d.r.Reset(r)
	return d
}

// ResetBytes aims the decoder — the zero Decoder will do — at b, an encoded
// stream already in memory, decoding straight out of it (slice-mode Reader)
// instead of through an io.Reader. It starts a new stream: the type and
// object tables are emptied but keep their memory, for a decoder that is
// pooled, and no record count is expected. With owned, the caller gives b up
// (Reader.ResetBytesOwned): byte bodies of OwnedFloor bytes or more come
// back pointing into b, and Aliased then says so. Count restarts at zero.
func (d *Decoder) ResetBytes(b []byte, owned bool) {
	// The objects, and the slabs the types hand them out from, belong to
	// whoever decoded them, not to a pooled table: a type's slab holder
	// stays for the next stream that names its class, but lets go of its
	// slab.
	for _, t := range d.types {
		if t.alloc.s != nil {
			t.alloc.s.drop()
			if d.holder(t.name) == nil {
				d.holders = append(d.holders, slabHolder{t.name, t.alloc.s})
			}
		}
	}
	clear(d.types)
	d.types = d.types[:0]
	clear(d.objs)
	d.objs = d.objs[:0]
	d.left = -1
	d.ContinueBytes(b, owned)
}

// holder returns the kept slab holder of class name, or nil.
func (d *Decoder) holder(name string) slabSource {
	for _, h := range d.holders {
		if h.name == name {
			return h.s
		}
	}
	return nil
}

// Expect tells the decoder that n records are still to come on this stream,
// the next one included: a slab a type's objects come from holds no more
// than n of them. Without it a type's slabs start after its first eight
// objects and double (Alloc.New).
func (d *Decoder) Expect(n int) { d.left = n }

// ContinueBytes aims the decoder at b as the next piece of the stream it is
// on — an Encoder's output cut between two values: the type and object
// tables carry over, so a back-reference may name an object an earlier piece
// delivered. owned is as for ResetBytes and holds for this piece alone; Count
// and Aliased restart.
func (d *Decoder) ContinueBytes(b []byte, owned bool) {
	if owned {
		d.r.ResetBytesOwned(b)
	} else {
		d.r.ResetBytes(b)
	}
}

// Aliased reports whether a value decoded from the current piece points into
// it, which only an owned piece allows.
func (d *Decoder) Aliased() bool { return d.r.Aliased() }

// Remaining reports the undecoded bytes of a decoder over bytes in memory.
func (d *Decoder) Remaining() int { return d.r.Remaining() }

// DecodeEnd consumes the end-of-stream marker Encoder.Close wrote. Unlike
// Decode, which reports a marker and an input that simply stops both as
// io.EOF, it tells them apart: a receiver that knows how many values to
// expect calls it after the last one, and a stream cut short of its marker,
// or carrying on past the count, is an error.
func (d *Decoder) DecodeEnd() error {
	tag, err := d.r.ReadByte()
	if err == io.EOF {
		return fmt.Errorf("wio: stream ends without its end-of-stream marker: %w", io.ErrUnexpectedEOF)
	}
	if err != nil {
		return err
	}
	if tag != tagDone {
		return fmt.Errorf("wio: tag %d where the end-of-stream marker belongs", tag)
	}
	return nil
}

// Count reports bytes consumed so far.
func (d *Decoder) Count() int64 { return d.r.Count() }

// Decode reads one value. It returns io.EOF (exactly) at the end-of-stream
// marker or a clean underlying EOF.
func (d *Decoder) Decode() (Writable, error) {
	tag, err := d.r.ReadByte()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagDone:
		return nil, io.EOF
	case tagRef:
		id, err := d.r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if id >= uint64(len(d.objs)) {
			return nil, fmt.Errorf("wio: back-reference %d out of range (have %d objects)", id, len(d.objs))
		}
		return d.objs[id], nil
	case tagNew:
		tid, err := d.r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if tid == uint64(len(d.types)) {
			name, err := d.r.readStringBytes(&d.name)
			if err != nil {
				return nil, err
			}
			e, err := lookupName(name)
			if err != nil {
				return nil, err
			}
			a := allocOf(e)
			a.s = d.holder(e.name)
			d.types = append(d.types, decType{e.name, a})
		} else if tid > uint64(len(d.types)) {
			return nil, fmt.Errorf("wio: type id %d out of range (have %d types)", tid, len(d.types))
		}
		t := &d.types[tid]
		v := t.alloc.New(d.left)
		if err := v.ReadFields(&d.r); err != nil {
			return nil, fmt.Errorf("wio: decoding %s: %w", t.name, err)
		}
		d.objs = append(d.objs, v)
		return v, nil
	default:
		return nil, fmt.Errorf("wio: corrupt stream: unknown tag %d", tag)
	}
}

// DecodeUvarint reads a raw unsigned varint written by EncodeUvarint.
func (d *Decoder) DecodeUvarint() (uint64, error) {
	return d.r.ReadUvarint()
}

// DecodePair reads a key/value pair.
func (d *Decoder) DecodePair() (Pair, error) {
	k, err := d.Decode()
	if err != nil {
		return Pair{}, err
	}
	v, err := d.Decode()
	if err != nil {
		if err == io.EOF {
			return Pair{}, fmt.Errorf("wio: truncated pair: %w", io.ErrUnexpectedEOF)
		}
		return Pair{}, err
	}
	return Pair{Key: k, Value: v}, nil
}
