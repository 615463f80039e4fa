package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// A frame is a Buffer's wire form, in which a budgeted M3R task's output
// toward a remote place crosses, beside wio.Encoder's stream:
//
//	payload  the serialized objects, back to back: the arena's chunks
//	table    per record, uvarints: partition, key entry, value entry. An
//	         entry is len<<1 for an object that is the payload's next len
//	         bytes, or off<<1|1 then len for a back-reference to bytes
//	         already passed (identity de-duplication, §3.2.2.3)
//	footer   payload length and record count, 8 bytes each, big-endian
//
// There is no tag byte and no per-object type id: a run holds one key class
// and one value class, fixed per task and kept in memory beside the run.

const frameFooterLen = 16

// ErrCorruptFrame is the cause of every Decode error.
var ErrCorruptFrame = errors.New("spill: corrupt shuffle frame")

// Ship writes the buffer's records as a frame, sends it through send, which
// returns it as it arrived at the destination, and then holds the records
// as Decode does. It returns the frame's length and the back-references
// Collect made.
func (b *Buffer) Ship(parts int, send func([]byte) ([]byte, error)) (int, int64, error) {
	chunks, n := b.a.Chunks(), frameFooterLen+4*len(b.meta) // a record's table entries are 3 bytes or more
	for _, c := range chunks {
		n += len(c)
	}
	s := b.scratch()
	s.wire = slices.Grow(s.wire[:0], n)
	for _, c := range chunks {
		s.wire = append(s.wire, c...)
	}
	payloadLen, at := len(s.wire), int32(0) // at: where the objects so far end
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
	frame, err := send(s.wire)
	if err != nil {
		return 0, 0, err
	}
	return len(frame), b.hits, b.Decode(frame, parts)
}

// frameCursor walks a frame's table, bounding every field before its use.
type frameCursor struct {
	table            []byte
	tpos, ppos, plen int
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
// or a back-reference, which may only reach bytes an earlier object put there.
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
	case !ref:
		c.ppos += int(n)
	}
	return span{off: int32(off), n: int32(n)}, nil
}

// Decode indexes the records of frame, as it arrived, in place of the
// buffer's own and lays them out as LayOut does. Whatever the bytes are, the
// result is records or an ErrCorruptFrame, and nothing is allocated on the
// word of a field not checked against the frame's length.
func (b *Buffer) Decode(frame []byte, parts int) error {
	if len(frame) < frameFooterLen || len(frame) > math.MaxInt32 {
		return fmt.Errorf("%w: %d bytes, not between the footer's and 2 GiB", ErrCorruptFrame, len(frame))
	}
	body, footer := frame[:len(frame)-frameFooterLen], frame[len(frame)-frameFooterLen:]
	payloadLen, n := binary.BigEndian.Uint64(footer), binary.BigEndian.Uint64(footer[8:])
	if payloadLen > uint64(len(body)) {
		return fmt.Errorf("%w: payload of %d bytes in a frame body of %d", ErrCorruptFrame, payloadLen, len(body))
	}
	c := frameCursor{table: body[payloadLen:], plen: int(payloadLen)}
	// A record is at least three table bytes.
	if n > uint64(len(c.table))/3 {
		return fmt.Errorf("%w: %d records in a table of %d bytes", ErrCorruptFrame, n, len(c.table))
	}
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
			return err
		}
		b.meta = append(b.meta, m)
	}
	if c.tpos != len(c.table) || c.ppos != c.plen {
		return fmt.Errorf("%w: %d records end at table byte %d of %d, payload byte %d of %d", ErrCorruptFrame, n, c.tpos, len(c.table), c.ppos, c.plen)
	}
	b.layOut([][]byte{body[:payloadLen]}, []int{0}, parts)
	return nil
}
