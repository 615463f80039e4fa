// Package spill is the on-disk run format both engines share. The record
// unit is (uvarint keyLen, key bytes, uvarint valLen, value bytes); a spill
// file is the partitions in order, an index (kept in memory, like Hadoop's
// file.out.index) records each partition's byte range as a Segment.
//
// An empty segment is zero bytes; any other is a 6-byte header (magic
// "\xF5M3S", layout, segment codec id) followed by blocks. Records are
// grouped into blocks of about blockRawTarget raw bytes — a record never
// straddles a block, an oversized record simply gets an oversized block —
// and each block is (codec id byte, uvarint rawLen, uvarint storedLen,
// storedLen body bytes). Codec none stores every block as it is; flate
// compresses each one and falls back to a stored block when compression does
// not shrink the body, so storedLen never exceeds rawLen. Sorted runs are
// highly repetitive in the key column, which is where the cheap ratio lives.
//
// The layout byte says how a block's raw bytes hold records: one after
// another in the record unit above (layoutRecords, what SegmentWriter
// writes), or as key groups, each key once with its values after it
// (layoutGrouped, grouped.go).
//
// Every segment carries its own header, so segments of either codec mix
// freely in one file and a fetched shuffle segment stays self-describing
// after a byte-range copy. Decoding happens inside Stream.Next,
// transparently under merge leaves.
//
// The Hadoop engine writes map-side sort spills and shuffle segments in
// the per-record layout, and so does the kvstore its cold cache blocks; the
// M3R engine writes the shuffle runs that exceed its memory budget in the
// grouped one. One reader and one merge serve both engines.
package spill

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"m3r/internal/wio"
)

// Codec identifies a spill block compression codec on the wire and in
// configuration (conf.KeyM3RSpillCodec).
type Codec uint8

const (
	// CodecNone stores bytes as they are: as a segment codec every block is
	// stored, as a per-block codec it marks a stored block.
	CodecNone Codec = 0
	// CodecFlate compresses block bodies with DEFLATE (compress/flate).
	CodecFlate Codec = 1
)

// ErrUnknownCodec reports a codec id (or configured codec name) this
// build does not implement — corrupt data or a format from the future.
var ErrUnknownCodec = errors.New("spill: unknown codec")

// ErrBlockSizeMismatch reports a block whose body does not inflate to the
// byte count its header declares — more, fewer, or an implausible
// declaration. Always corruption, never a silent short stream.
var ErrBlockSizeMismatch = errors.New("spill: block size mismatch")

// ErrNotSegment reports a non-empty byte range that does not start with the
// segment magic: not a spill segment at all, or one read at the wrong offset.
var ErrNotSegment = errors.New("spill: not a spill segment")

func (c Codec) valid() bool { return c == CodecNone || c == CodecFlate }

func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecFlate:
		return "flate"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// ParseCodec maps a configured codec name to its Codec. The empty string
// is CodecNone: an unset knob means stored blocks.
func ParseCodec(name string) (Codec, error) {
	switch name {
	case "", "none":
		return CodecNone, nil
	case "flate":
		return CodecFlate, nil
	}
	return 0, fmt.Errorf("%w %q (want none or flate)", ErrUnknownCodec, name)
}

// segMagic opens every non-empty segment.
var segMagic = [4]byte{0xF5, 'M', '3', 'S'}

// The segment layouts, the header's fifth byte. layoutRecords is the
// original format's version byte, so a per-record segment's bytes did not
// change when the grouped layout came.
const (
	layoutRecords = 1
	layoutGrouped = 2
)

const (
	segHeaderLen = len(segMagic) + 2 // magic + layout byte + codec byte

	// blockRawTarget is the raw byte count at which a block is cut. 64 KiB
	// keeps the compressor's window warm across many records while
	// bounding both the writer's staging buffer and the reader's
	// per-block allocation.
	blockRawTarget = 64 << 10

	// maxFlateRatio bounds how much a DEFLATE body can legitimately
	// inflate (the format's floor is ~1 output byte per 1032 input bytes).
	// A corrupt rawLen past this bound is rejected before allocation.
	maxFlateRatio = 1032
)

// Rec is one serialized record: key and value bytes without any framing.
type Rec struct {
	K, V []byte
}

// Size is the record's in-memory accounting size, Hadoop's
// io.sort.mb-style estimate: payload plus maximal varint framing.
func (r Rec) Size() int64 { return int64(len(r.K) + len(r.V) + 2*binary.MaxVarintLen32) }

// EncodedLen is the record's exact raw (pre-compression) length in the
// spill record format: actual varint framing plus payload — the bytes
// AppendRec adds, and what a per-record segment's raw length counts per
// record.
func (r Rec) EncodedLen() int64 { return int64(fieldLen(len(r.K)) + fieldLen(len(r.V))) }

// AppendRec appends r in the record format to dst.
func AppendRec(dst []byte, r Rec) []byte {
	return appendField(appendField(dst, r.K), r.V)
}

// appendField appends b with its uvarint length before it.
func appendField(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// fieldLen is what appendField adds for n bytes.
func fieldLen(n int) int { return uvarintLen(uint64(n)) + n }

// SegmentWriter writes one segment to an underlying buffered writer. The
// caller owns w: Finish completes the segment but does not flush or close
// the writer, so several segments (one per partition, Hadoop-style) can
// share one file.
type SegmentWriter struct {
	w       *bufio.Writer
	codec   Codec
	layout  byte
	written int64 // stored (on-disk) bytes emitted so far, header included
	raw     int64 // raw record-format bytes accepted so far

	// enc is the block staging and compression scratch, checked out of
	// blockEncoders at the first record and returned by Finish.
	enc *blockEncoder
}

// blockEncoder is what a segment needs while it is being written: the
// staged raw bytes of the current block, the framing scratch and, for
// flate, the compressed-body scratch and the compressor. A flate.Writer is
// ~750 KB of tables, so it is built at the first flate block an encoder
// sees, kept with the pooled encoder and Reset per block — a stored-block
// segment never builds one. It runs at flate's speed level: a spill block
// is written once and read back once, moments later, so compression buys
// disk bytes at the price of the map task's time, and sorted runs' repeated
// keys keep most of the ratio at level 1 (DESIGN.md "Spill format").
type blockEncoder struct {
	buf  []byte
	cbuf bytes.Buffer
	fw   *flate.Writer
	hdr  [segHeaderLen + 1 + 2*binary.MaxVarintLen64]byte // framing scratch
}

var blockEncoders = sync.Pool{New: func() any { return new(blockEncoder) }}

// NewSegmentWriter starts a per-record segment with the given codec on w.
func NewSegmentWriter(w *bufio.Writer, codec Codec) *SegmentWriter {
	return &SegmentWriter{w: w, codec: codec, layout: layoutRecords}
}

// Write appends one record to the segment.
func (sw *SegmentWriter) Write(r Rec) error {
	if sw.enc == nil {
		sw.enc = blockEncoders.Get().(*blockEncoder)
	}
	sw.enc.buf = AppendRec(sw.enc.buf, r)
	sw.raw += r.EncodedLen()
	if len(sw.enc.buf) >= blockRawTarget {
		return sw.flushBlock()
	}
	return nil
}

// Finish completes the segment, returning the stored byte count (the
// Segment.Len a reader needs) and the raw record-format byte count (what
// the same records occupy without framing or compression — the accounting
// behind SPILLED_RAW_BYTES). A segment given no records is zero bytes.
func (sw *SegmentWriter) Finish() (written, raw int64, err error) {
	err = sw.flushBlock()
	if sw.enc != nil {
		sw.enc.buf = sw.enc.buf[:0]
		blockEncoders.Put(sw.enc)
		sw.enc = nil
	}
	if err != nil {
		return 0, 0, err
	}
	return sw.written, sw.raw, nil
}

// flushBlock emits the staged raw bytes as one block.
func (sw *SegmentWriter) flushBlock() error {
	if sw.enc == nil || len(sw.enc.buf) == 0 {
		return nil
	}
	err := sw.writeBlock(sw.enc.buf)
	sw.enc.buf = sw.enc.buf[:0]
	return err
}

// writeBlock emits raw — whole records, the segment's next block —
// compressed when the codec is flate and that shrinks them, stored
// otherwise. The segment header goes out ahead of the first block.
func (sw *SegmentWriter) writeBlock(raw []byte) error {
	enc := sw.enc
	hdr := enc.hdr[:0]
	if sw.written == 0 {
		hdr = appendSegHeader(hdr, sw.layout, sw.codec)
	}
	body, bcodec := raw, CodecNone
	if sw.codec == CodecFlate {
		if enc.fw == nil {
			enc.fw, _ = flate.NewWriter(nil, flate.BestSpeed) // errs only on an invalid level
		}
		enc.cbuf.Reset()
		enc.fw.Reset(&enc.cbuf)
		if _, err := enc.fw.Write(raw); err != nil {
			return err
		}
		if err := enc.fw.Close(); err != nil {
			return err
		}
		if enc.cbuf.Len() < len(raw) {
			body, bcodec = enc.cbuf.Bytes(), CodecFlate
		}
	}
	hdr = appendBlockHeader(hdr, bcodec, len(raw), len(body))
	if _, err := sw.w.Write(hdr); err != nil {
		return err
	}
	if _, err := sw.w.Write(body); err != nil {
		return err
	}
	sw.written += int64(len(hdr) + len(body))
	return nil
}

// appendSegHeader appends the header that opens a segment of the given
// layout and codec c.
func appendSegHeader(dst []byte, layout byte, c Codec) []byte {
	return append(append(dst, segMagic[:]...), layout, byte(c))
}

// appendBlockHeader appends a block's framing: its codec and its raw and
// stored lengths.
func appendBlockHeader(dst []byte, c Codec, rawLen, storedLen int) []byte {
	dst = binary.AppendUvarint(append(dst, byte(c)), uint64(rawLen))
	return binary.AppendUvarint(dst, uint64(storedLen))
}

// EncodedRun is one run encoded to its exact on-disk segment bytes. The
// M3R engine encodes before it writes so counters and the disk cost charge
// the stored length.
type EncodedRun struct {
	Data []byte // the segment exactly as it will appear on disk
	Raw  int64  // raw record-format length (EncodedLen of the records)
}

// runEncoder is encode's pooled staging: sw writes the segment through bw
// into out, which is then copied once into an exactly sized Data.
type runEncoder struct {
	out bytes.Buffer
	bw  *bufio.Writer
	sw  SegmentWriter
}

var runEncoders = sync.Pool{New: func() any {
	re := new(runEncoder)
	re.bw = bufio.NewWriter(&re.out)
	return re
}}

// encode runs fill against a pooled SegmentWriter of the given layout and
// returns the segment it wrote.
func encode(codec Codec, layout byte, fill func(sw *SegmentWriter) error) (EncodedRun, error) {
	re := runEncoders.Get().(*runEncoder)
	defer func() {
		re.out.Reset()
		re.bw.Reset(&re.out)
		runEncoders.Put(re)
	}()
	re.sw = SegmentWriter{w: re.bw, codec: codec, layout: layout}
	err := fill(&re.sw)
	_, raw, ferr := re.sw.Finish()
	if err == nil {
		err = ferr
	}
	if err == nil {
		err = re.bw.Flush()
	}
	if err != nil {
		return EncodedRun{}, err
	}
	return EncodedRun{Data: bytes.Clone(re.out.Bytes()), Raw: raw}, nil
}

// EncodeRun encodes recs as one in-memory segment with the given codec:
// the bytes a SegmentWriter writes for them. Stored blocks need no staging,
// so codec none lays them out straight into one exactly sized Data.
func EncodeRun(recs []Rec, codec Codec) (EncodedRun, error) {
	if codec == CodecNone {
		return storeRecs(recs), nil
	}
	return encode(codec, layoutRecords, func(sw *SegmentWriter) error {
		for _, r := range recs {
			if err := sw.Write(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// storeRecs is EncodeRun for CodecNone: a sizing pass over the record
// lengths, then the header, and per block its framing and its records.
func storeRecs(recs []Rec) EncodedRun {
	if len(recs) == 0 {
		return EncodedRun{}
	}
	size, raw := segHeaderLen, 0
	for lo := 0; lo < len(recs); {
		hi, n := blockEnd(recs, lo)
		size += 1 + 2*uvarintLen(uint64(n)) + n
		raw += n
		lo = hi
	}
	data := appendSegHeader(make([]byte, 0, size), layoutRecords, CodecNone)
	for lo := 0; lo < len(recs); {
		hi, n := blockEnd(recs, lo)
		data = appendBlockHeader(data, CodecNone, n, n)
		for _, r := range recs[lo:hi] {
			data = AppendRec(data, r)
		}
		lo = hi
	}
	return EncodedRun{Data: data, Raw: int64(raw)}
}

// blockEnd returns where the block that starts at recs[lo] ends — where
// SegmentWriter.Write cuts it — and its raw length.
func blockEnd(recs []Rec, lo int) (hi, n int) {
	for hi = lo; hi < len(recs) && n < blockRawTarget; hi++ {
		n += int(recs[hi].EncodedLen())
	}
	return hi, n
}

// MarshalRun serializes a run of pairs into the spill record format: the
// records, the key/value class names needed to decode them (taken from the
// first pair), and the run's accounting size — what the M3R shuffle does to
// a run at admission and eviction and the kvstore to a cache block at
// commit and spill. The whole run is marshalled once into pooled scratch
// and copied into one exactly sized slab that every Rec sub-slices, so the
// cost is two allocations per run however long it is.
func MarshalRun(pairs []wio.Pair) (recs []Rec, keyClass, valClass string, size int64, err error) {
	if keyClass, err = wio.NameOf(pairs[0].Key); err != nil {
		return nil, "", "", 0, err
	}
	if valClass, err = wio.NameOf(pairs[0].Value); err != nil {
		return nil, "", "", 0, err
	}
	w := runMarshalers.Get().(*wio.Writer)
	defer runMarshalers.Put(w)
	w.ResetBytes(w.Bytes()[:0])
	recs = make([]Rec, len(pairs))
	for i, p := range pairs {
		k0 := w.Count()
		if err := p.Key.WriteTo(w); err != nil {
			return nil, "", "", 0, err
		}
		k1 := w.Count()
		if err := p.Value.WriteTo(w); err != nil {
			return nil, "", "", 0, err
		}
		// Lengths only for now: the scratch may still move as it grows.
		b := w.Bytes()
		recs[i] = Rec{K: b[k0:k1], V: b[k1:]}
	}
	slab := bytes.Clone(w.Bytes())
	for i := range recs {
		kl, vl := len(recs[i].K), len(recs[i].V)
		recs[i] = Rec{K: slab[:kl:kl], V: slab[kl : kl+vl : kl+vl]}
		slab = slab[kl+vl:]
		size += recs[i].Size()
	}
	return recs, keyClass, valClass, size, nil
}

var runMarshalers = sync.Pool{New: func() any { return new(wio.Writer) }}

// RunSize is the accounting size MarshalRun returns for pairs, and its
// error, from a counting pass that keeps no byte and allocates nothing: what
// a caller that only needs the size (the kvstore's budgeted commit) pays
// instead of a marshalled copy of the run. An empty run is 0.
func RunSize(pairs []wio.Pair) (int64, error) {
	if len(pairs) == 0 {
		return 0, nil
	}
	if _, err := wio.NameOf(pairs[0].Key); err != nil {
		return 0, err
	}
	if _, err := wio.NameOf(pairs[0].Value); err != nil {
		return 0, err
	}
	w := runSizers.Get().(*wio.Writer)
	defer runSizers.Put(w)
	w.Reset(io.Discard)
	for _, p := range pairs {
		if err := p.Key.WriteTo(w); err != nil {
			return 0, err
		}
		if err := p.Value.WriteTo(w); err != nil {
			return 0, err
		}
	}
	return w.Count() + int64(len(pairs))*2*binary.MaxVarintLen32, nil // Rec.Size, summed
}

// runSizers are RunSize's stream-mode writers, each counting into io.Discard.
var runSizers = sync.Pool{New: func() any { return wio.NewWriter(io.Discard) }}

// PairDecoder is MarshalRun's inverse, one record at a time: it turns
// records back into writables of a run's key and value classes, distinct
// objects taken from each class's slabs (wio.Alloc). The classes are
// resolved once, at construction, and every record decodes through one
// slice-mode reader. Not for concurrent use.
type PairDecoder struct {
	keys, vals         wio.Alloc
	keyClass, valClass string
	left               int  // records still to come, or negative when unknown
	kept               bool // a cache may keep the objects
	rd                 wio.Reader
}

// NewPairDecoder resolves the run's class names against the wio registry.
// n is how many records the decoder will be handed, or negative when the
// caller does not know; no slab holds more objects than that. kept says a
// cache may keep the objects — a spilled cache block's read — so they take
// no shared slab (wio.NewAlloc) and their float bodies exact
// allocations; otherwise they die with the job and a short block's objects
// and every short float body come from the shared slabs.
func NewPairDecoder(keyClass, valClass string, n int, kept bool) (*PairDecoder, error) {
	d := &PairDecoder{}
	if err := d.reuse(keyClass, valClass, n, kept); err != nil {
		return nil, err
	}
	return d, nil
}

// reuse readies d for n records of the classes named, as NewPairDecoder
// would, keeping the allocators — and their slab holders — of a class it
// decoded before with the same kept.
func (d *PairDecoder) reuse(keyClass, valClass string, n int, kept bool) error {
	if kept != d.kept {
		d.keyClass, d.valClass, d.kept = "", "", kept
	}
	if err := reuseAlloc(&d.keys, &d.keyClass, keyClass, kept); err != nil {
		return err
	}
	if err := reuseAlloc(&d.vals, &d.valClass, valClass, kept); err != nil {
		return err
	}
	d.left = n
	d.rd.SetTransient(!kept)
	return nil
}

func reuseAlloc(a *wio.Alloc, class *string, name string, kept bool) error {
	if name != "" && name == *class {
		a.Reset()
		return nil
	}
	na, err := wio.NewAlloc(name, kept)
	if err != nil {
		*class = ""
		return err
	}
	*a, *class = na, name
	return nil
}

// release lets go of everything d decoded: its slabs and its last input.
func (d *PairDecoder) release() {
	d.keys.Reset()
	d.vals.Reset()
	d.rd.ResetBytes(nil)
}

// Decode deserializes one record, copying every body out of it.
func (d *PairDecoder) Decode(rec Rec) (wio.Pair, error) { return d.decode(rec, false) }

// DecodeOwned deserializes one record of an owned Stream (ReadOwned), whose
// block is the decoded objects' alone: every non-empty byte body is a view
// of the record's bytes (wio.Reader.ResetBytesOwned with floor 0), not a
// copy.
func (d *PairDecoder) DecodeOwned(rec Rec) (wio.Pair, error) { return d.decode(rec, true) }

func (d *PairDecoder) decode(rec Rec, owned bool) (wio.Pair, error) {
	k, v := d.keys.New(d.left), d.vals.New(d.left)
	if d.left > 0 {
		d.left--
	}
	d.reset(rec.K, owned, 0)
	if err := k.ReadFields(&d.rd); err != nil {
		return wio.Pair{}, fmt.Errorf("spill: decoding key: %w", err)
	}
	d.reset(rec.V, owned, 0)
	if err := v.ReadFields(&d.rd); err != nil {
		return wio.Pair{}, fmt.Errorf("spill: decoding value: %w", err)
	}
	return wio.Pair{Key: k, Value: v}, nil
}

// reset aims the reader at b: copying, or with owned over a b it gives up,
// handing bodies of floor bytes or more out as views of it.
func (d *PairDecoder) reset(b []byte, owned bool, floor int) {
	if owned {
		d.rd.ResetBytesOwned(b, floor)
	} else {
		d.rd.ResetBytes(b)
	}
}

// read decodes one object of a's class out of b, an arrived piece that with
// owned the object may keep views of from wio.OwnedFloor bytes up
// (wio.Reader.ResetBytesOwned), and reports whether it does. An object that
// leaves bytes of b unread is an error.
func (d *PairDecoder) read(a *wio.Alloc, b []byte, owned bool) (wio.Writable, bool, error) {
	v := a.New(d.left)
	d.reset(b, owned, wio.OwnedFloor)
	if err := v.ReadFields(&d.rd); err != nil {
		return nil, false, err
	}
	if n := d.rd.Remaining(); n != 0 {
		return nil, false, fmt.Errorf("%d of %d bytes left unread", n, len(b))
	}
	return v, d.rd.Aliased(), nil
}

// runFileWriter wraps the handle every run-file write goes through — the
// package's fault-injection seam. Tests swap it to fail mid-write (ENOSPC,
// a failing flush) and pin that the partial file is removed.
var runFileWriter = func(f *os.File) io.Writer { return f }

// WriteEncodedFile writes one pre-encoded run as a single-segment file at
// path, returning the bytes written (len(er.Data)). On any write or close
// error the partial file is removed: a failed spill must not strand
// garbage in scratch.
func WriteEncodedFile(path string, er EncodedRun) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if _, err := runFileWriter(f).Write(er.Data); err != nil {
		f.Close()
		os.Remove(path)
		return 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return 0, err
	}
	return int64(len(er.Data)), nil
}

// Segment is one partition's byte range inside a spill file.
type Segment struct {
	Off, Len int64
}

// Stream reads records back from one byte range of a file, block by block.
// Returned records alias the decoded bytes of their block, which live in a
// recycled buffer (blockBufs), as bufio.Scanner's tokens live in its buffer:
// a Rec is valid through the stream's next Next and until the Next after
// that, or until Close. The one record of lookbehind is what a merge needs
// — engine.Tournament compares a source's replaced head with the record
// that replaces it — so the stream keeps the block its last record came from
// until it has read the block after; at the end of the segment the last
// block stays until Close. A consumer that keeps a record longer copies what
// it keeps: the raw merge copies a group's key, not its record. In a grouped
// segment the records of one group in one block share one key slice.
//
// An owned stream (ReadOwned) recycles nothing: each block is read or
// inflated into a fresh buffer of exactly its raw length, which belongs to
// the records read from it from then on, so a record stays valid for as
// long as anything points into it.
type Stream struct {
	f      *os.File
	lr     io.LimitedReader // the segment's bytes not yet buffered
	br     *bufio.Reader
	closed bool
	// cur holds the current block's decoded bytes, blk; prev the block
	// before it, kept for the lookbehind. prev goes back to blockBufs at the
	// end of the segment, cur at Close.
	cur, prev *blockBuf
	blk       []byte
	pos       int // parse position in blk, per-record layout
	// grouped marks a grouped segment, whose blocks gc reads.
	grouped bool
	gc      GroupCursor
	// owned: every block is a fresh buffer, never a blockBuf (ReadOwned).
	owned bool
}

// rem is how many of the segment's declared bytes are not yet consumed; none
// once the stream is closed.
func (s *Stream) rem() int64 {
	if s.closed {
		return 0
	}
	return s.lr.N + int64(s.br.Buffered())
}

// openStreams counts Streams opened but not yet closed. Every open segment
// holds a file handle, so a merge that terminates early (reducer error, job
// abort) and strands a Stream is a descriptor leak; tests pin the count
// back to its baseline after such exits.
var openStreams atomic.Int64

// OpenStreamCount reports how many Streams are currently open.
func OpenStreamCount() int64 { return openStreams.Load() }

// OpenSegment opens the byte range seg of the file at path and reads its
// header. A zero-length range is the empty segment; any other must lead
// with the segment magic (ErrNotSegment otherwise), and a header cut short,
// an unknown format version or an unknown codec id fails here, before any
// record is surfaced.
func OpenSegment(path string, seg Segment) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(seg.Off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	s := &Stream{f: f, lr: io.LimitedReader{R: f, N: seg.Len}}
	s.br = segReaders.Get().(*bufio.Reader) // a reducer opens one per map output
	s.br.Reset(&s.lr)
	if seg.Len > 0 {
		if err := s.readHeader(); err != nil {
			putSegReader(s.br)
			f.Close()
			return nil, err
		}
	}
	openStreams.Add(1)
	return s, nil
}

// segReaders pools the streams' 4 KiB readers. No record aliases one: a
// record lives in its block's blockBuf.
var segReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4096) }}

// putSegReader returns br to its pool, its buffer poisoned under
// PoisonRecycledBlocks (read full of 0xDB), and its source dropped.
func putSegReader(br *bufio.Reader) {
	if PoisonRecycledBlocks.Load() {
		br.Reset(poisonSource{})
		br.Peek(br.Size())
	}
	br.Reset(nil)
	segReaders.Put(br)
}

// poisonSource reads as an endless run of 0xDB.
type poisonSource struct{}

func (poisonSource) Read(p []byte) (int, error) {
	poisonBytes(p)
	return len(p), nil
}

// readHeader consumes and checks the segment header.
func (s *Stream) readHeader() error {
	var hdr [segHeaderLen]byte
	n, err := io.ReadFull(s.br, hdr[:])
	if m := min(n, len(segMagic)); !bytes.Equal(hdr[:m], segMagic[:m]) {
		return fmt.Errorf("%w: leading bytes % x", ErrNotSegment, hdr[:m])
	}
	if err != nil {
		return unexpectedEOF(err)
	}
	switch hdr[4] {
	case layoutRecords:
	case layoutGrouped:
		s.grouped = true
	default:
		return fmt.Errorf("spill: unsupported segment format version %d", hdr[4])
	}
	if c := Codec(hdr[5]); !c.valid() {
		return fmt.Errorf("%w id %d in segment header", ErrUnknownCodec, uint8(c))
	}
	if s.rem() <= 0 {
		// A writer never ends a segment at its header: blocks are owed.
		return io.ErrUnexpectedEOF
	}
	return nil
}

// OpenFile opens the whole file at path as one segment.
func OpenFile(path string) (*Stream, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return OpenSegment(path, Segment{Off: 0, Len: st.Size()})
}

// ReadOwned switches the stream to owned mode, for a caller that keeps what
// it decodes from the records as views of them (PairDecoder.DecodeOwned):
// each block from the next on is read or inflated into a fresh buffer of
// exactly its raw length, which never goes back to the pool. The caller
// calls it before its first Next.
func (s *Stream) ReadOwned() { s.owned = true }

// Next returns the next record, or ok=false at the end of the segment,
// pulling and decoding the next block when the current one is exhausted. A
// segment that ends before its declared length is consumed — the file was
// truncated, or a block straddles the segment boundary — is an error
// (io.ErrUnexpectedEOF), never a silent end-of-stream: rem() > 0 here means
// bytes are owed, so EOF can only be corruption. Corrupt blocks
// additionally surface ErrUnknownCodec and ErrBlockSizeMismatch.
func (s *Stream) Next() (Rec, bool, error) {
	if s.grouped {
		return s.nextGrouped()
	}
	for s.pos >= len(s.blk) {
		if ok, err := s.nextBlock(); !ok {
			return Rec{}, false, err
		}
	}
	kl, err := s.blkUvarint()
	if err != nil {
		return Rec{}, false, err
	}
	if kl > uint64(len(s.blk)-s.pos) {
		// Records never straddle blocks; a key running past the block's
		// decoded bytes is corruption.
		return Rec{}, false, io.ErrUnexpectedEOF
	}
	k := s.blk[s.pos : s.pos+int(kl) : s.pos+int(kl)]
	s.pos += int(kl)
	vl, err := s.blkUvarint()
	if err != nil {
		return Rec{}, false, err
	}
	if vl > uint64(len(s.blk)-s.pos) {
		return Rec{}, false, io.ErrUnexpectedEOF
	}
	v := s.blk[s.pos : s.pos+int(vl) : s.pos+int(vl)]
	s.pos += int(vl)
	return Rec{K: k, V: v}, true, nil
}

// nextGrouped is Next on a grouped segment: every block starts a group, so
// a group whose values run past its block is corruption.
func (s *Stream) nextGrouped() (Rec, bool, error) {
	for s.gc.done() {
		if ok, err := s.nextBlock(); !ok {
			return Rec{}, false, err
		}
		s.gc.Reset(s.blk)
	}
	return s.gc.Next()
}

// nextBlock installs the segment's next block, reporting false at the end
// of the segment or on error.
func (s *Stream) nextBlock() (bool, error) {
	if s.rem() <= 0 {
		// The last record stays good through this Next like any other,
		// so only the block before its block goes back here.
		putBlockBuf(s.prev)
		s.prev = nil
		return false, nil
	}
	if err := s.readBlock(); err != nil {
		return false, err
	}
	return true, nil
}

// blkUvarint decodes one varint from the current block at pos.
func (s *Stream) blkUvarint() (uint64, error) {
	v, n := binary.Uvarint(s.blk[s.pos:])
	if n == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if n < 0 {
		return 0, errVarintOverflow
	}
	s.pos += n
	return v, nil
}

// readBlock consumes one block header and body from the segment and
// installs the decoded bytes as the current block. The block it replaces
// becomes the lookbehind, and the one before that goes back to the pool —
// unless the replaced block was empty and so holds no record to look at.
func (s *Stream) readBlock() error {
	if len(s.blk) > 0 {
		putBlockBuf(s.prev)
		s.prev = s.cur
	} else {
		putBlockBuf(s.cur)
	}
	s.cur, s.blk, s.pos = nil, nil, 0
	cb, err := s.br.ReadByte()
	if err != nil {
		return unexpectedEOF(err)
	}
	c := Codec(cb)
	if !c.valid() {
		return fmt.Errorf("%w id %d in block header", ErrUnknownCodec, cb)
	}
	rawLen, err := binary.ReadUvarint(s.br)
	if err != nil {
		return unexpectedEOF(err)
	}
	storedLen, err := binary.ReadUvarint(s.br)
	if err != nil {
		return unexpectedEOF(err)
	}
	if storedLen > uint64(s.rem()) {
		// The body would run past the segment: truncated file or corrupt
		// length. Reject before allocating.
		return io.ErrUnexpectedEOF
	}
	switch {
	case c == CodecNone && rawLen != storedLen:
		return fmt.Errorf("%w: stored block declares rawLen %d != storedLen %d",
			ErrBlockSizeMismatch, rawLen, storedLen)
	case c == CodecFlate && rawLen > (storedLen+1)*maxFlateRatio:
		// DEFLATE cannot expand past ~1032:1; a rawLen beyond that bound is
		// a corrupt header trying to over-allocate.
		return fmt.Errorf("%w: flate block declares implausible rawLen %d for %d stored bytes",
			ErrBlockSizeMismatch, rawLen, storedLen)
	}
	var bb *blockBuf
	var raw []byte
	if s.owned {
		raw = make([]byte, rawLen)
	} else {
		bb = getBlockBuf(int(rawLen))
		raw = bb.b
	}
	if c == CodecNone {
		_, err = io.ReadFull(s.br, raw)
		err = unexpectedEOF(err)
	} else {
		err = s.inflate(raw, storedLen)
	}
	if err != nil {
		putBlockBuf(bb)
		return err
	}
	s.cur, s.blk = bb, raw
	return nil
}

// inflate reads a flate block's storedLen body bytes from the segment and
// inflates them into raw, which must be exactly what they inflate to.
func (s *Stream) inflate(raw []byte, storedLen uint64) error {
	bd := blockDecoders.Get().(*blockDecoder)
	defer blockDecoders.Put(bd)
	if uint64(cap(bd.body)) < storedLen {
		bd.body = make([]byte, storedLen)
	}
	body := bd.body[:storedLen]
	if _, err := io.ReadFull(s.br, body); err != nil {
		return unexpectedEOF(err)
	}
	// Reset discards whatever state the previous block left behind, a
	// corrupt one's error included.
	bd.src.Reset(body)
	if err := bd.fr.(flate.Resetter).Reset(&bd.src, nil); err != nil {
		return err
	}
	got, err := io.ReadFull(bd.fr, raw)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: flate block inflated to %d of declared %d raw bytes",
				ErrBlockSizeMismatch, got, len(raw))
		}
		return fmt.Errorf("spill: corrupt flate block: %w", err)
	}
	var one [1]byte
	if m, _ := bd.fr.Read(one[:]); m != 0 {
		return fmt.Errorf("%w: flate block inflates beyond declared %d raw bytes",
			ErrBlockSizeMismatch, len(raw))
	}
	return nil
}

// blockDecoder is the pooled scratch of one flate block's decode: the
// stored body, a reader over it and the inflater, Reset per block instead
// of being built per block. The inflated bytes are a blockBuf of the
// stream's.
type blockDecoder struct {
	body []byte
	src  bytes.Reader
	fr   io.ReadCloser
}

var blockDecoders = sync.Pool{New: func() any {
	return &blockDecoder{fr: flate.NewReader(bytes.NewReader(nil))}
}}

// blockBuf is one block's decoded bytes, stored or inflated, recycled across
// streams through blockBufs. b is resliced to each block's length; its
// capacity is the largest block it has held, so after the first few blocks
// a pooled buffer fits every block of ordinary records.
type blockBuf struct{ b []byte }

var blockBufs = sync.Pool{New: func() any { return new(blockBuf) }}

// PoisonRecycledBlocks is a test hook: while set, every block buffer and
// stream reader going back to its pool, every formats.SeqReader copy-mode
// window going back to its, and every Buffer's arena chunks and frame table
// at its reset are overwritten
// with 0xDB first, so a Rec or a decoded value kept past its lifetime reads
// garbage instead of, most of the time, its own bytes.
var PoisonRecycledBlocks atomic.Bool

// getBlockBuf checks out a buffer of exactly n bytes.
func getBlockBuf(n int) *blockBuf {
	bb := blockBufs.Get().(*blockBuf)
	if cap(bb.b) < n {
		bb.b = make([]byte, n)
	}
	bb.b = bb.b[:n]
	return bb
}

// putBlockBuf returns bb, which no record may still alias, to the pool. A
// nil bb is no block.
func putBlockBuf(bb *blockBuf) {
	if bb == nil {
		return
	}
	PoisonRecycled(bb.b[:cap(bb.b)])
	blockBufs.Put(bb)
}

// PoisonRecycled overwrites b with 0xDB while PoisonRecycledBlocks is set.
// A pool's owner calls it on a buffer going back to the pool.
func PoisonRecycled(b []byte) {
	if PoisonRecycledBlocks.Load() {
		poisonBytes(b)
	}
}

// poisonBytes fills b with 0xDB, doubling what is filled with each copy.
func poisonBytes(b []byte) {
	if len(b) > 0 {
		b[0] = 0xDB
	}
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// unexpectedEOF upgrades a mid-record io.EOF to io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

var errVarintOverflow = errors.New("spill: varint overflows a 64-bit integer")

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Close releases the underlying file. It is idempotent — merge teardown
// paths may close a stream that an error path already closed — but not
// concurrency-safe: a stream has exactly one owner at a time.
func (s *Stream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	putBlockBuf(s.prev)
	putBlockBuf(s.cur)
	putSegReader(s.br)
	s.prev, s.cur, s.blk, s.pos, s.br = nil, nil, nil, 0, nil
	s.gc.Reset(nil)
	openStreams.Add(-1)
	return s.f.Close()
}

// SortRecs orders serialized records by key with the raw comparator,
// stably (Hadoop preserves input order among equal keys within a task).
// Raw comparison keeps the spill sort off the deserializer; a cmp that is a
// wio.RawSortPrefixer has most comparisons done on cached integers (see
// wio.SortStable).
func SortRecs(recs []Rec, cmp wio.RawComparator) {
	var prefix func(Rec) (uint64, bool)
	if p, ok := cmp.(wio.RawSortPrefixer); ok {
		prefix = func(r Rec) (uint64, bool) { return p.SortPrefixRaw(r.K) }
	}
	wio.SortStable(recs, prefix, func(a, b Rec) int {
		return cmp.CompareRaw(a.K, b.K)
	})
}
