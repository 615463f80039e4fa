package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// The grouped layout stores a sorted run's key once per group, with the
// group's values after it:
//
//	group  uvarint keyLen, key, uvarint n (n ≥ 1), then n values, each a
//	       uvarint valLen and the value
//
// A group is a stretch of consecutive records whose keys are the same
// bytes. A run sorted under any comparator keeps its equal keys together,
// so its groups are its keys; nothing here compares keys except for byte
// equality, and a run in any order still round-trips, only in more groups.
//
// The M3R engine holds a budgeted run resident as these groups and nothing
// else, and spills it as a grouped segment: the header's layout byte is
// layoutGrouped, and every block holds whole groups. A group that a block
// boundary cuts is two groups, the second restating the key, so that every
// block still decodes on its own. The Hadoop engine and the kvstore keep
// the per-record layout (DESIGN.md "Spill format").

// errEmptyGroup reports a group that declares no value: a writer never
// makes one, so it is corruption.
var errEmptyGroup = errors.New("spill: grouped run declares a group of no value")

// GroupedLen is the length of recs in the grouped layout: what
// AppendGrouped appends.
func GroupedLen(recs []Rec) int64 {
	n := 0
	for i := 0; i < len(recs); {
		j := groupEnd(recs, i)
		n += fieldLen(len(recs[i].K)) + uvarintLen(uint64(j-i))
		for _, r := range recs[i:j] {
			n += fieldLen(len(r.V))
		}
		i = j
	}
	return int64(n)
}

// AppendGrouped appends recs to dst in the grouped layout.
func AppendGrouped(dst []byte, recs []Rec) []byte {
	for i := 0; i < len(recs); {
		j := groupEnd(recs, i)
		dst = binary.AppendUvarint(appendField(dst, recs[i].K), uint64(j-i))
		for _, r := range recs[i:j] {
			dst = appendField(dst, r.V)
		}
		i = j
	}
	return dst
}

// groupEnd returns where the group that starts at recs[i] ends.
func groupEnd(recs []Rec, i int) int {
	j := i + 1
	for j < len(recs) && bytes.Equal(recs[j].K, recs[i].K) {
		j++
	}
	return j
}

// GroupCursor reads bytes of the grouped layout — a resident run, or one
// block of a grouped segment — as records, views of those bytes. Every
// record of a group carries the very key slice of the group's first: a
// merge tells a record that continues its source's group from one that
// starts a new key by that alone (engine.RecSource).
type GroupCursor struct {
	b    []byte
	key  []byte
	left uint64 // the current group's values still to come
}

// Reset aims c at the start of b.
func (c *GroupCursor) Reset(b []byte) { *c = GroupCursor{b: b} }

// done reports that c has handed out every record of its bytes.
func (c *GroupCursor) done() bool { return c.left == 0 && len(c.b) == 0 }

// Next returns the next record, or ok=false once the bytes are used up. A
// group that ends before its count of values is io.ErrUnexpectedEOF.
func (c *GroupCursor) Next() (Rec, bool, error) {
	if c.left == 0 {
		if len(c.b) == 0 {
			return Rec{}, false, nil
		}
		k, n, rest, err := cutGroupHead(c.b)
		if err != nil {
			return Rec{}, false, err
		}
		c.key, c.left, c.b = k, n, rest
	}
	v, rest, err := cutField(c.b)
	if err != nil {
		return Rec{}, false, err
	}
	c.b = rest
	c.left--
	return Rec{K: c.key, V: v}, true, nil
}

// cutGroupHead cuts a group's key and value count off the front of b.
func cutGroupHead(b []byte) (key []byte, n uint64, rest []byte, err error) {
	if key, b, err = cutField(b); err != nil {
		return nil, 0, nil, err
	}
	n, w := binary.Uvarint(b)
	switch {
	case w == 0:
		return nil, 0, nil, io.ErrUnexpectedEOF
	case w < 0:
		return nil, 0, nil, errVarintOverflow
	case n == 0:
		return nil, 0, nil, errEmptyGroup
	}
	return key, n, b[w:], nil
}

// cutField cuts one length-prefixed field (appendField's) off the front of
// b, as a view of b.
func cutField(b []byte) (field, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	switch {
	case w == 0:
		return nil, nil, io.ErrUnexpectedEOF
	case w < 0:
		return nil, nil, errVarintOverflow
	case n > uint64(len(b)-w):
		return nil, nil, io.ErrUnexpectedEOF
	}
	end := w + int(n)
	return b[w:end:end], b[end:], nil
}

// GroupedBlockBytes is a test hook: while positive, EncodeGrouped cuts its
// blocks at that many raw bytes instead of blockRawTarget, so that a run of
// a few records spans several blocks.
var GroupedBlockBytes atomic.Int64

// EncodeGrouped encodes seg, a run in the grouped layout, as one grouped
// segment with the given codec. A block takes groups, and values of a
// group, until its bytes reach blockRawTarget — the open group's count not
// counted — after the value that takes it there, so an oversized value gets
// an oversized block; a group cut there goes on in the next block under its
// restated key. A seg that does not parse as whole groups is an error.
func EncodeGrouped(seg []byte, codec Codec) (EncodedRun, error) {
	target := blockRawTarget
	if n := GroupedBlockBytes.Load(); n > 0 {
		target = int(n)
	}
	return encode(codec, layoutGrouped, func(sw *SegmentWriter) error {
		sw.enc = blockEncoders.Get().(*blockEncoder) // Finish returns it
		flush := func() error {
			err := sw.writeBlock(sw.enc.buf)
			sw.raw += int64(len(sw.enc.buf))
			sw.enc.buf = sw.enc.buf[:0]
			return err
		}
		for len(seg) > 0 {
			key, n, vals, err := cutGroupHead(seg)
			if err != nil {
				return err
			}
			for n > 0 {
				// The part of the group this block takes: m values, the
				// first off bytes of vals.
				size := len(sw.enc.buf) + fieldLen(len(key))
				m, off := uint64(0), 0
				for m < n {
					_, rest, err := cutField(vals[off:])
					if err != nil {
						return err
					}
					size += len(vals) - off - len(rest)
					off, m = len(vals)-len(rest), m+1
					if size >= target {
						break
					}
				}
				sw.enc.buf = binary.AppendUvarint(appendField(sw.enc.buf, key), m)
				sw.enc.buf = append(sw.enc.buf, vals[:off]...)
				vals, n = vals[off:], n-m
				if size >= target {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			seg = vals
		}
		if len(sw.enc.buf) > 0 {
			return flush()
		}
		return nil
	})
}

// EncodeGroupedRun is EncodeGrouped over recs: the grouped segment of the
// run AppendGrouped lays them out as.
func EncodeGroupedRun(recs []Rec, codec Codec) (EncodedRun, error) {
	b := groupedScratch.Get().(*[]byte)
	defer groupedScratch.Put(b)
	*b = AppendGrouped((*b)[:0], recs)
	return EncodeGrouped(*b, codec)
}

// groupedScratch holds the grouped layout of the runs EncodeGroupedRun
// encodes; the bytes are copied into the segment, so none outlives the call.
var groupedScratch = sync.Pool{New: func() any { return new([]byte) }}
