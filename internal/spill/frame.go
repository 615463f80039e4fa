package spill

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"m3r/internal/wio"
)

// A frame is a Buffer's wire form, in which every move of pairs from one
// place to another crosses:
//
//	payload  the serialized objects, back to back: the arena's chunks
//	table    per record, uvarints: partition, key entry, value entry. An
//	         entry is len<<1 for an object that is the payload's next len
//	         bytes, or off<<1|1 then len for a back-reference to bytes
//	         already passed (identity de-duplication, §3.2.2.3)
//	footer   payload length and record count, 8 bytes each, big-endian
//
// It crosses in pieces, one transport frame each: every chunk of the
// payload, the table and footer behind the last chunk when that chunk has
// room for them, else as a piece of their own. The footer ends the last
// piece, so what of the payload is in it is known from the footer's length
// and the pieces before it. An object lies in one piece. There is
// no tag byte and no per-object type id: a buffer holds one key class and
// one value class, which the receiver knows apart from the bytes.

const frameFooterLen = 16

// ErrCorruptFrame is the cause of every Decode and Unpack error.
var ErrCorruptFrame = errors.New("spill: corrupt shuffle frame")

// Ship sends the buffer's records as a frame through send, piece by piece:
// each of the arena's chunks, the last with the table and footer written
// into its spare room behind its bytes when they fit there, else followed by
// them. So a buffer of one chunk with room to spare crosses as one piece.
// send returns a piece as it arrived at the destination, and the buffer
// then holds the records as Decode does. Ship returns the bytes and the
// pieces that crossed, and the back-references Collect made.
func (b *Buffer) Ship(parts int, send func([]byte) ([]byte, error)) (n, pieces int, hits int64, err error) {
	s := b.scratch()
	s.arrived = s.arrived[:0]
	chunks := b.a.Chunks()
	payloadLen := 0
	for _, c := range chunks {
		payloadLen += len(c)
	}
	s.wire = slices.Grow(s.wire[:0], frameFooterLen+4*len(b.meta)) // a record's table entries are 3 bytes or more
	at := int32(0)                                                 // where the objects so far end
	// A back-reference is any object that does not start where the payload ends.
	entry := func(o span) {
		if o.off != at {
			s.wire = binary.AppendUvarint(s.wire, uint64(o.off)<<1|1)
			s.wire = binary.AppendUvarint(s.wire, uint64(o.n))
			return
		}
		s.wire = binary.AppendUvarint(s.wire, uint64(o.n)<<1)
		at += o.n
	}
	for _, m := range b.meta {
		s.wire = binary.AppendUvarint(s.wire, uint64(m.part))
		entry(m.k)
		entry(m.v)
	}
	s.wire = binary.BigEndian.AppendUint64(s.wire, uint64(payloadLen))
	s.wire = binary.BigEndian.AppendUint64(s.wire, uint64(len(b.meta)))
	tail := s.wire
	for i, c := range chunks {
		if i == len(chunks)-1 && cap(c)-len(c) >= len(tail) {
			// The arena writes no byte past a chunk's length before its
			// next reset, so the room behind the last chunk is free.
			c, tail = append(c, tail...), nil
		}
		if err := b.send(send, c, &n); err != nil {
			return 0, 0, 0, err
		}
	}
	if tail != nil {
		if err := b.send(send, tail, &n); err != nil {
			return 0, 0, 0, err
		}
	}
	return n, len(s.arrived), b.hits, b.Decode(s.arrived, parts)
}

// send sends one piece of a frame and keeps it as it arrived.
func (b *Buffer) send(send func([]byte) ([]byte, error), piece []byte, n *int) error {
	p, err := send(piece)
	if err != nil {
		return err
	}
	b.sc.arrived = append(b.sc.arrived, p)
	*n += len(p)
	return nil
}

// frameCursor walks a frame's table, bounding every field before its use.
type frameCursor struct {
	table            []byte
	tpos, ppos, plen int
	payload          [][]byte // the payload's pieces, and where each starts
	starts           []int
	at               int    // the piece ppos is in
	refs             []span // what the back-references name
}

func (c *frameCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.table[c.tpos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: table ends inside an entry at byte %d", ErrCorruptFrame, c.tpos)
	}
	c.tpos += n
	return v, nil
}

// object locates the next object's bytes in the payload: its next n bytes,
// or a back-reference, which may only reach bytes an earlier object put
// there. Either lies in one piece.
func (c *frameCursor) object() (span, error) {
	e, err := c.uvarint()
	off, n, ref := uint64(c.ppos), e>>1, e&1 == 1
	if err == nil && ref {
		off = n
		n, err = c.uvarint()
	}
	switch {
	case err != nil:
		return span{}, err
	case !ref && n > uint64(c.plen-c.ppos):
		return span{}, fmt.Errorf("%w: object of %d bytes at payload byte %d of %d", ErrCorruptFrame, n, c.ppos, c.plen)
	case ref && (off > uint64(c.ppos) || n > uint64(c.ppos)-off):
		return span{}, fmt.Errorf("%w: back-reference to bytes %d+%d with the payload at byte %d", ErrCorruptFrame, off, n, c.ppos)
	}
	o := span{off: int32(off), n: int32(n)}
	if n == 0 {
		return o, nil
	}
	i := c.at
	if ref {
		i = sort.SearchInts(c.starts, int(off)+1) - 1
		if k := len(c.refs); k == 0 || c.refs[k-1] != o { // one object sent over and over: one entry
			c.refs = append(c.refs, o)
		}
	} else {
		for off >= uint64(c.starts[i]+len(c.payload[i])) {
			i++
		}
		c.at = i
		c.ppos += int(n)
	}
	if end := c.starts[i] + len(c.payload[i]); off+n > uint64(end) {
		return span{}, fmt.Errorf("%w: object at payload bytes %d+%d crosses the end of a piece at %d", ErrCorruptFrame, off, n, end)
	}
	return o, nil
}

// Decode indexes the records of a frame as it arrived, in pieces — the
// payload's, the last ending in the table and footer — in place of the
// buffer's own, and
// lays them out as LayOut does. Whatever the bytes are, the result is
// records or an ErrCorruptFrame, and nothing is allocated on the word of a
// field not checked against the frame's length. The pieces must stay as
// they are until the buffer's next reset.
func (b *Buffer) Decode(pieces [][]byte, parts int) error {
	total := 0
	for _, p := range pieces {
		total += len(p)
	}
	if len(pieces) == 0 || total > math.MaxInt32 {
		return fmt.Errorf("%w: %d bytes in %d pieces, not one piece or more under 2 GiB", ErrCorruptFrame, total, len(pieces))
	}
	last := pieces[len(pieces)-1]
	if len(last) < frameFooterLen {
		return fmt.Errorf("%w: a last piece of %d bytes, shorter than the footer", ErrCorruptFrame, len(last))
	}
	footer := last[len(last)-frameFooterLen:]
	payloadLen, n := binary.BigEndian.Uint64(footer), binary.BigEndian.Uint64(footer[8:])
	before := total - len(last) // the payload bytes of the pieces before the last
	if payloadLen < uint64(before) || payloadLen-uint64(before) > uint64(len(last)-frameFooterLen) {
		return fmt.Errorf("%w: a payload of %d bytes where %d arrived before the last piece of %d", ErrCorruptFrame, payloadLen, before, len(last))
	}
	inLast := int(payloadLen) - before
	table := last[inLast : len(last)-frameFooterLen]
	// A record is at least three table bytes.
	if n > uint64(len(table))/3 {
		return fmt.Errorf("%w: %d records in a table of %d bytes", ErrCorruptFrame, n, len(table))
	}
	s := b.scratch()
	s.payload, s.starts = append(s.payload[:0], pieces[:len(pieces)-1]...), s.starts[:0]
	if inLast > 0 {
		s.payload = append(s.payload, last[:inLast])
	}
	at := 0
	for _, p := range s.payload {
		s.starts = append(s.starts, at)
		at += len(p)
	}
	c := frameCursor{table: table, plen: int(payloadLen), payload: s.payload, starts: s.starts, refs: s.refs[:0]}
	b.meta = slices.Grow(b.meta[:0], int(n))
	for range n {
		q, err := c.uvarint()
		if err == nil && q >= uint64(parts) {
			err = fmt.Errorf("%w: partition %d of %d", ErrCorruptFrame, q, parts)
		}
		m := kvMeta{part: int32(q)}
		if err == nil {
			m.k, err = c.object()
		}
		if err == nil {
			m.v, err = c.object()
		}
		if err != nil {
			s.refs = c.refs
			return err
		}
		b.meta = append(b.meta, m)
	}
	s.refs = c.refs
	if c.tpos != len(c.table) || c.ppos != c.plen {
		return fmt.Errorf("%w: %d records end at table byte %d of %d, payload byte %d of %d", ErrCorruptFrame, n, c.tpos, len(c.table), c.ppos, c.plen)
	}
	b.layOut(s.payload, s.starts, parts)
	return nil
}

// Unpack turns the records that arrived (Ship, Decode) into objects of the
// classes named, from slabs, and hands each to f with its partition, in
// collect order. kept says whoever is handed them may pass them on to a
// cache, so they take no shared slab (NewPairDecoder). Every
// back-reference to one object decodes to that one object. A value of
// wio.OwnedFloor bytes or more is a view of its piece unless the piece is
// less than half full; such a piece is the values' from then on, and if it
// is the very chunk that was sent, the buffer's arena forgets it
// (Arena.HandOver). The buffer's views die at the next reset; the objects
// do not.
func (b *Buffer) Unpack(keyClass, valClass string, kept bool, f func(p int, kv wio.Pair)) error {
	s := b.sc
	d := &s.dec
	if err := d.reuse(keyClass, valClass, len(b.meta), kept); err != nil {
		return err
	}
	slices.SortFunc(s.refs, byOffset)
	s.refs = slices.CompactFunc(s.refs, func(x, y span) bool { return x.off == y.off })
	s.objs = slices.Grow(s.objs[:0], len(s.refs))[:len(s.refs)]
	u := unpacker{b: b}
	for _, m := range b.meta {
		k, err := u.object(&d.keys, m.k)
		if err != nil {
			return fmt.Errorf("%w: key: %w", ErrCorruptFrame, err)
		}
		v, err := u.object(&d.vals, m.v)
		if err != nil {
			return fmt.Errorf("%w: value: %w", ErrCorruptFrame, err)
		}
		if d.left > 0 {
			d.left--
		}
		f(int(m.part), wio.Pair{Key: k, Value: v})
	}
	return nil
}

func byOffset(x, y span) int { return cmp.Compare(x.off, y.off) }

// unpacker is Unpack's walk through the payload: at is the piece the last
// new object was in and next where the new objects so far end.
type unpacker struct {
	b    *Buffer
	at   int
	next int32
}

// object decodes the object o locates, or finds it decoded already.
func (u *unpacker) object(a *wio.Alloc, o span) (wio.Writable, error) {
	s := u.b.sc
	r, named := -1, false
	if o.n > 0 {
		r, named = slices.BinarySearchFunc(s.refs, o, byOffset)
	}
	if o.n > 0 && o.off != u.next { // a back-reference
		if !named || s.objs[r] == nil || s.refs[r].n != o.n {
			return nil, fmt.Errorf("back-reference to bytes %d+%d names no object", o.off, o.n)
		}
		return s.objs[r], nil
	}
	raw := view(s.payload, s.starts, &u.at, o)
	owned := false
	if o.n > 0 {
		p := s.payload[u.at]
		owned = 2*len(p) >= cap(p)
	}
	v, aliased, err := s.dec.read(a, raw, owned)
	if err != nil {
		return nil, err
	}
	if aliased {
		u.b.a.HandOver(u.at, s.payload[u.at])
	}
	if named {
		s.objs[r], s.refs[r].n = v, o.n
	}
	u.next += o.n
	return v, nil
}
