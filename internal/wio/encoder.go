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
	name  []byte // a type name read from the stream
}

// decType is a type the stream has named: the registry is asked for its
// class once, when the name arrives, not once per object, and the type's
// objects come from its own allocator.
type decType struct {
	name  string
	alloc Alloc
}

// NewDecoder returns a Decoder consuming from r. What it decodes dies with
// the stream: its objects and float bodies are transient (NewAlloc,
// Reader.SetTransient).
func NewDecoder(r io.Reader) *Decoder {
	d := &Decoder{}
	d.r.Reset(r)
	d.r.SetTransient(true)
	return d
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
			d.types = append(d.types, decType{e.name, allocOf(e, false)})
		} else if tid > uint64(len(d.types)) {
			return nil, fmt.Errorf("wio: type id %d out of range (have %d types)", tid, len(d.types))
		}
		t := &d.types[tid]
		v := t.alloc.New(-1)
		if err := v.ReadFields(&d.r); err != nil {
			return nil, fmt.Errorf("wio: decoding %s: %w", t.name, err)
		}
		d.objs = append(d.objs, v)
		return v, nil
	default:
		return nil, fmt.Errorf("wio: corrupt stream: unknown tag %d", tag)
	}
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
