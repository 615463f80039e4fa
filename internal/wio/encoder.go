package wio

import (
	"fmt"
	"io"
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
	w      *Writer
	types  map[string]uint64
	objs   map[Writable]uint64 // identity → id; made on the first insert, so only when dedup is on
	dedup  bool
	nextID uint64
	hits   uint64
}

// NewEncoder returns an Encoder targeting w. When dedup is true, repeated
// objects are transmitted once.
func NewEncoder(w io.Writer, dedup bool) *Encoder {
	return &Encoder{
		w:     NewWriter(w),
		types: make(map[string]uint64),
		dedup: dedup,
	}
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
	name, err := NameOf(v)
	if err != nil {
		return err
	}
	if err := e.w.WriteByte(tagNew); err != nil {
		return err
	}
	tid, known := e.types[name]
	if !known {
		tid = uint64(len(e.types))
		e.types[name] = tid
		if err := e.w.WriteUvarint(tid); err != nil {
			return err
		}
		if err := e.w.WriteString(name); err != nil {
			return err
		}
	} else {
		if err := e.w.WriteUvarint(tid); err != nil {
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
	types []string
	objs  []Writable
}

// NewDecoder returns a Decoder consuming from r.
func NewDecoder(r io.Reader) *Decoder {
	d := new(Decoder)
	d.r.Reset(r)
	return d
}

// NewDecoderBytes returns a Decoder over an encoded frame already in
// memory, decoding straight out of b (slice-mode Reader) instead of through
// an io.Reader.
func NewDecoderBytes(b []byte) *Decoder {
	d := new(Decoder)
	d.r.ResetBytes(b)
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
		var name string
		if tid == uint64(len(d.types)) {
			name, err = d.r.ReadString()
			if err != nil {
				return nil, err
			}
			d.types = append(d.types, name)
		} else if tid < uint64(len(d.types)) {
			name = d.types[tid]
		} else {
			return nil, fmt.Errorf("wio: type id %d out of range (have %d types)", tid, len(d.types))
		}
		v, err := New(name)
		if err != nil {
			return nil, err
		}
		if err := v.ReadFields(&d.r); err != nil {
			return nil, fmt.Errorf("wio: decoding %s: %w", name, err)
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
