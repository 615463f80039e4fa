// Package spill is the on-disk run format both engines share. The record
// unit is (uvarint keyLen, key bytes, uvarint valLen, value bytes); a spill
// file is the partitions in order, an index (kept in memory, like Hadoop's
// file.out.index) records each partition's byte range as a Segment.
//
// A segment comes in two layouts, distinguished by its leading bytes:
//
//   - Raw (codec "none", the default): the records concatenated with no
//     framing beyond their own — byte-identical to the format every prior
//     release wrote, so existing segments stay readable and unconfigured
//     jobs keep producing the exact same bytes.
//
//   - Block-compressed: a 6-byte segment header (magic "\xF5M3S", format
//     version, segment codec id) followed by blocks. Records are grouped
//     into blocks of about blockRawTarget raw bytes — a record never
//     straddles a block, an oversized record simply gets an oversized
//     block — and each block is (codec id byte, uvarint rawLen, uvarint
//     storedLen, storedLen body bytes). Per block the writer falls back to
//     codec none when compression does not shrink the body, so storedLen
//     never exceeds rawLen by more than framing. Sorted runs are highly
//     repetitive in the key column, which is where the cheap ratio lives.
//
// The reader sniffs the magic per segment, so raw and compressed segments
// mix freely in one file and a fetched shuffle segment stays
// self-describing after a byte-range copy. Decompression happens inside
// Stream.Next — transparently under merge leaves, including the staged
// parallel merge's workers, where it overlaps final-merge consumption.
//
// The Hadoop engine writes map-side sort spills and shuffle segments in
// this format; the M3R engine writes shuffle runs that exceed its memory
// budget the same way, so one reader and one merge serve both engines.
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
	// CodecNone stores bytes as-is. As a segment codec it selects the raw
	// headerless layout; as a per-block codec it marks a stored block.
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
// is CodecNone: an unset knob means the byte-compatible raw layout.
func ParseCodec(name string) (Codec, error) {
	switch name {
	case "", "none":
		return CodecNone, nil
	case "flate":
		return CodecFlate, nil
	}
	return 0, fmt.Errorf("%w %q (want none or flate)", ErrUnknownCodec, name)
}

// Block-compressed segment layout constants. The magic's first byte is a
// varint continuation byte: interpreted as a raw record it declares a key
// of at least 2^28 bytes, so a legacy reader misdirected at a compressed
// segment fails its bounds check instead of silently decoding garbage.
var segMagic = [4]byte{0xF5, 'M', '3', 'S'}

const (
	formatVersion = 1
	segHeaderLen  = len(segMagic) + 2 // magic + version byte + codec byte

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
// spill record format: actual varint framing plus payload — the single
// length formula shared by WriteRec's byte count and the aggregate
// EncodedLen (a unit test pins it to the bytes WriteRunFile really
// produces).
func (r Rec) EncodedLen() int64 {
	return int64(uvarintLen(uint64(len(r.K)))) + int64(len(r.K)) +
		int64(uvarintLen(uint64(len(r.V)))) + int64(len(r.V))
}

// WriteRec appends one raw-format record to w, returning the bytes written
// (r.EncodedLen() by construction).
func WriteRec(w *bufio.Writer, r Rec) (int64, error) {
	var scratch [binary.MaxVarintLen64]byte
	m := binary.PutUvarint(scratch[:], uint64(len(r.K)))
	if _, err := w.Write(scratch[:m]); err != nil {
		return 0, err
	}
	if _, err := w.Write(r.K); err != nil {
		return 0, err
	}
	m = binary.PutUvarint(scratch[:], uint64(len(r.V)))
	if _, err := w.Write(scratch[:m]); err != nil {
		return 0, err
	}
	if _, err := w.Write(r.V); err != nil {
		return 0, err
	}
	return r.EncodedLen(), nil
}

// AppendRec appends r in the raw record format — the bytes WriteRec emits —
// to dst.
func AppendRec(dst []byte, r Rec) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.K)))
	dst = append(dst, r.K...)
	dst = binary.AppendUvarint(dst, uint64(len(r.V)))
	dst = append(dst, r.V...)
	return dst
}

// CutRec is AppendRec's inverse: it returns the raw-format record seg starts
// with, as views of seg, and what follows it. A seg that ends inside the
// record is io.ErrUnexpectedEOF.
func CutRec(seg []byte) (Rec, []byte, error) {
	var f [2][]byte
	for i := range f {
		n, w := binary.Uvarint(seg)
		if w <= 0 || n > uint64(len(seg)-w) {
			return Rec{}, nil, io.ErrUnexpectedEOF
		}
		f[i], seg = seg[w:w+int(n):w+int(n)], seg[w+int(n):]
	}
	return Rec{K: f[0], V: f[1]}, seg, nil
}

// SegmentWriter writes one segment — raw for CodecNone, block-compressed
// otherwise — to an underlying buffered writer. The caller owns w: Finish
// completes the segment but does not flush or close the writer, so several
// segments (one per partition, Hadoop-style) can share one file.
type SegmentWriter struct {
	w          *bufio.Writer
	codec      Codec
	written    int64 // stored (on-disk) bytes emitted so far
	raw        int64 // raw record-format bytes accepted so far
	headerDone bool

	// enc is the block staging and compression scratch of a compressed
	// segment, checked out of blockEncoders at the first record and
	// returned by Finish.
	enc *blockEncoder
}

// blockEncoder is what a compressed segment needs while it is being
// written: the staged raw bytes of the current block, the compressed-body
// scratch and the compressor. A flate.Writer is ~750 KB of tables, so it is
// pooled and Reset per block instead of being built per spilled run.
// It runs at flate's speed level: a spill block is written once and read
// back once, moments later, so compression buys disk bytes at the price of
// the map task's time, and sorted runs' repeated keys keep most of the ratio
// at level 1 (DESIGN.md "Spill format").
type blockEncoder struct {
	buf  []byte
	cbuf bytes.Buffer
	fw   *flate.Writer
	hdr  [1 + 2*binary.MaxVarintLen64]byte // block header scratch
}

var blockEncoders = sync.Pool{New: func() any {
	fw, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		panic(err) // only an invalid level, which BestSpeed is not
	}
	return &blockEncoder{fw: fw}
}}

// NewSegmentWriter starts a segment with the given codec on w.
func NewSegmentWriter(w *bufio.Writer, codec Codec) *SegmentWriter {
	return &SegmentWriter{w: w, codec: codec}
}

// Write appends one record to the segment.
func (sw *SegmentWriter) Write(r Rec) error {
	if sw.codec == CodecNone {
		n, err := WriteRec(sw.w, r)
		if err != nil {
			return err
		}
		sw.written += n
		sw.raw += n
		return nil
	}
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
// the same records would have occupied uncompressed — the accounting
// behind SPILLED_RAW_BYTES).
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

// writeBlock emits raw — whole records, a compressed segment's next block —
// compressing when the codec shrinks them and falling back to a stored
// block otherwise. The segment header goes out ahead of the first block.
func (sw *SegmentWriter) writeBlock(raw []byte) error {
	enc := sw.enc
	if !sw.headerDone {
		if _, err := sw.w.Write(segMagic[:]); err != nil {
			return err
		}
		if err := sw.w.WriteByte(formatVersion); err != nil {
			return err
		}
		if err := sw.w.WriteByte(byte(sw.codec)); err != nil {
			return err
		}
		sw.written += int64(segHeaderLen)
		sw.headerDone = true
	}
	body, bcodec := raw, CodecNone
	if sw.codec == CodecFlate {
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
	hdr := &enc.hdr
	hdr[0] = byte(bcodec)
	n := 1
	n += binary.PutUvarint(hdr[n:], uint64(len(raw)))
	n += binary.PutUvarint(hdr[n:], uint64(len(body)))
	if _, err := sw.w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := sw.w.Write(body); err != nil {
		return err
	}
	sw.written += int64(n) + int64(len(body))
	return nil
}

// EncodedRun is one run encoded to its exact on-disk segment bytes. The
// M3R engine encodes before it writes so counters and the disk cost charge
// the stored (compressed) length.
type EncodedRun struct {
	Data []byte // the segment exactly as it will appear on disk
	Raw  int64  // raw record-format length (EncodedLen of the records)
}

// runEncoder is EncodeRun's pooled staging: the segment is assembled in out
// through bw, then copied once into an exactly sized Data.
type runEncoder struct {
	out bytes.Buffer
	bw  *bufio.Writer
}

var runEncoders = sync.Pool{New: func() any {
	re := new(runEncoder)
	re.bw = bufio.NewWriter(&re.out)
	return re
}}

// EncodeRun encodes recs as one in-memory segment with the given codec.
// For CodecNone, Data is byte-identical to the raw legacy layout.
func EncodeRun(recs []Rec, codec Codec) (EncodedRun, error) {
	re := runEncoders.Get().(*runEncoder)
	defer func() {
		re.out.Reset()
		re.bw.Reset(&re.out)
		runEncoders.Put(re)
	}()
	sw := NewSegmentWriter(re.bw, codec)
	for _, r := range recs {
		if err := sw.Write(r); err != nil {
			return EncodedRun{}, err
		}
	}
	_, raw, err := sw.Finish()
	if err != nil {
		return EncodedRun{}, err
	}
	if err := re.bw.Flush(); err != nil {
		return EncodedRun{}, err
	}
	return EncodedRun{Data: bytes.Clone(re.out.Bytes()), Raw: raw}, nil
}

// EncodeSegment is EncodeRun for records already laid out in the raw record
// format: seg is the bytes EncodeRun(recs, CodecNone) yields, and the result
// is byte for byte what EncodeRun(recs, codec) yields. For CodecNone that is
// seg itself, not a copy; otherwise blocks are cut at the record boundaries
// SegmentWriter.Write cuts them at and compressed straight out of seg. A seg
// that does not parse as whole records is io.ErrUnexpectedEOF.
func EncodeSegment(seg []byte, codec Codec) (EncodedRun, error) {
	if codec == CodecNone {
		return EncodedRun{Data: seg, Raw: int64(len(seg))}, nil
	}
	re := runEncoders.Get().(*runEncoder)
	defer func() {
		re.out.Reset()
		re.bw.Reset(&re.out)
		runEncoders.Put(re)
	}()
	sw := NewSegmentWriter(re.bw, codec)
	sw.enc = blockEncoders.Get().(*blockEncoder)
	defer sw.Finish() // nothing is staged in enc; this only returns it to its pool
	for block, rest := seg, seg; len(rest) > 0; {
		var err error
		if _, rest, err = CutRec(rest); err != nil {
			return EncodedRun{}, err
		}
		if n := len(block) - len(rest); n >= blockRawTarget || len(rest) == 0 {
			if err := sw.writeBlock(block[:n]); err != nil {
				return EncodedRun{}, err
			}
			block = rest
		}
	}
	if err := re.bw.Flush(); err != nil {
		return EncodedRun{}, err
	}
	return EncodedRun{Data: bytes.Clone(re.out.Bytes()), Raw: int64(len(seg))}, nil
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

// PairDecoder is MarshalRun's inverse, one record at a time: it turns
// records back into fresh writables of a run's key and value classes. The
// class factories are resolved once, at construction, and every record
// decodes through one slice-mode reader. Not for concurrent use.
type PairDecoder struct {
	newKey, newVal func() wio.Writable
	rd             wio.Reader
}

// NewPairDecoder resolves the run's class names against the wio registry.
func NewPairDecoder(keyClass, valClass string) (*PairDecoder, error) {
	newKey, err := wio.Factory(keyClass)
	if err != nil {
		return nil, err
	}
	newVal, err := wio.Factory(valClass)
	if err != nil {
		return nil, err
	}
	return &PairDecoder{newKey: newKey, newVal: newVal}, nil
}

// Decode deserializes one record.
func (d *PairDecoder) Decode(rec Rec) (wio.Pair, error) {
	k, v := d.newKey(), d.newVal()
	d.rd.ResetBytes(rec.K)
	if err := k.ReadFields(&d.rd); err != nil {
		return wio.Pair{}, fmt.Errorf("spill: decoding key: %w", err)
	}
	d.rd.ResetBytes(rec.V)
	if err := v.ReadFields(&d.rd); err != nil {
		return wio.Pair{}, fmt.Errorf("spill: decoding value: %w", err)
	}
	return wio.Pair{Key: k, Value: v}, nil
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

// WriteRunFile writes recs as a single-segment raw-layout file at path,
// returning the bytes written. On any write or flush error the partial
// file is removed — an ENOSPC mid-spill must not strand garbage in
// scratch for the job's lifetime.
func WriteRunFile(path string, recs []Rec) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(runFileWriter(f))
	var total int64
	for _, r := range recs {
		n, err := WriteRec(w, r)
		if err != nil {
			f.Close()
			os.Remove(path)
			return 0, err
		}
		total += n
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(path)
		return 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return 0, err
	}
	return total, nil
}

// EncodedLen returns the exact raw-layout length of recs in the spill
// record format — the value WriteRunFile returns for them, and the
// pre-compression size block-compressed accounting reports as
// SPILLED_RAW_BYTES.
func EncodedLen(recs []Rec) int64 {
	var n int64
	for _, r := range recs {
		n += r.EncodedLen()
	}
	return n
}

// Segment is one partition's byte range inside a spill file.
type Segment struct {
	Off, Len int64
}

// Stream reads records back from one byte range of a file, transparently
// inflating block-compressed segments.
// A Rec outlives the Next that returned it, every later Next and the Close —
// a raw segment's fields are allocated per record, a block segment's are
// views of block memory allocated per block and never reused — and the raw
// merge leans on it: it holds a group's first record while it pulls the rest.
type Stream struct {
	f      *os.File
	br     *bufio.Reader
	rem    int64 // stored (on-disk) bytes of the segment not yet consumed
	closed bool

	// Block mode, entered when the segment leads with the format magic:
	// records are parsed out of decoded block buffers. Returned records
	// alias blk, which is freshly allocated per block — records of one
	// block share a backing array that lives while any of them does.
	blocked bool
	blk     []byte
	pos     int
}

// openStreams counts Streams opened but not yet closed. Every open segment
// holds a file handle, so a merge that terminates early (reducer error, job
// abort) and strands a Stream is a descriptor leak; tests pin the count
// back to its baseline after such exits.
var openStreams atomic.Int64

// OpenStreamCount reports how many Streams are currently open.
func OpenStreamCount() int64 { return openStreams.Load() }

// OpenSegment opens the byte range seg of the file at path, sniffing the
// segment header to pick raw or block mode. An unknown format version or
// codec id fails here, before any record is surfaced.
func OpenSegment(path string, seg Segment) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(seg.Off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	s := &Stream{f: f, br: bufio.NewReader(io.LimitReader(f, seg.Len)), rem: seg.Len}
	if seg.Len >= int64(segHeaderLen) {
		if p, err := s.br.Peek(len(segMagic)); err == nil && bytes.Equal(p, segMagic[:]) {
			var hdr [segHeaderLen]byte
			if _, err := io.ReadFull(s.br, hdr[:]); err != nil {
				f.Close()
				return nil, unexpectedEOF(err)
			}
			if v := hdr[4]; v != formatVersion {
				f.Close()
				return nil, fmt.Errorf("spill: unsupported segment format version %d", v)
			}
			if c := Codec(hdr[5]); !c.valid() {
				f.Close()
				return nil, fmt.Errorf("%w id %d in segment header", ErrUnknownCodec, uint8(c))
			}
			s.blocked = true
			s.rem -= int64(segHeaderLen)
		}
	}
	openStreams.Add(1)
	return s, nil
}

// OpenFile opens the whole file at path as one segment.
func OpenFile(path string) (*Stream, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return OpenSegment(path, Segment{Off: 0, Len: st.Size()})
}

// Next returns the next record, or ok=false at the end of the segment. A
// segment that ends before its declared length is consumed — the file was
// truncated, or a record straddles the segment boundary — is an error
// (io.ErrUnexpectedEOF), never a silent end-of-stream: rem > 0 here means
// bytes are owed, so EOF can only be corruption. Corrupt block-compressed
// segments additionally surface ErrUnknownCodec and ErrBlockSizeMismatch.
func (s *Stream) Next() (Rec, bool, error) {
	if s.blocked {
		return s.nextBlocked()
	}
	if s.rem <= 0 {
		return Rec{}, false, nil
	}
	// The remainder is deducted field by field as each is consumed, so
	// every length is bounds-checked against the bytes actually still owed
	// — a corrupt varint cannot over-allocate more than the true residue.
	kl, n, err := readUvarint(s.br)
	s.rem -= int64(n)
	if err != nil {
		return Rec{}, false, unexpectedEOF(err)
	}
	if kl > uint64(s.rem) {
		// A record cannot outsize its segment; reject before allocating.
		return Rec{}, false, io.ErrUnexpectedEOF
	}
	k := make([]byte, kl)
	if _, err := io.ReadFull(s.br, k); err != nil {
		return Rec{}, false, unexpectedEOF(err)
	}
	s.rem -= int64(kl)
	vl, n, err := readUvarint(s.br)
	s.rem -= int64(n)
	if err != nil {
		return Rec{}, false, unexpectedEOF(err)
	}
	if vl > uint64(s.rem) {
		return Rec{}, false, io.ErrUnexpectedEOF
	}
	v := make([]byte, vl)
	if _, err := io.ReadFull(s.br, v); err != nil {
		return Rec{}, false, unexpectedEOF(err)
	}
	s.rem -= int64(vl)
	return Rec{K: k, V: v}, true, nil
}

// nextBlocked parses one record out of the current decoded block, pulling
// and inflating the next block when the current one is exhausted.
func (s *Stream) nextBlocked() (Rec, bool, error) {
	for s.pos >= len(s.blk) {
		if s.rem <= 0 {
			return Rec{}, false, nil
		}
		if err := s.readBlock(); err != nil {
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
// installs the decoded bytes as the current block.
func (s *Stream) readBlock() error {
	cb, err := s.br.ReadByte()
	if err != nil {
		return unexpectedEOF(err)
	}
	s.rem--
	c := Codec(cb)
	if !c.valid() {
		return fmt.Errorf("%w id %d in block header", ErrUnknownCodec, cb)
	}
	rawLen, n, err := readUvarint(s.br)
	s.rem -= int64(n)
	if err != nil {
		return unexpectedEOF(err)
	}
	storedLen, n, err := readUvarint(s.br)
	s.rem -= int64(n)
	if err != nil {
		return unexpectedEOF(err)
	}
	if storedLen > uint64(s.rem) {
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
	if c == CodecNone {
		// Records alias the block, so a stored body is read into memory of
		// its own.
		body := make([]byte, storedLen)
		if _, err := io.ReadFull(s.br, body); err != nil {
			return unexpectedEOF(err)
		}
		s.rem -= int64(storedLen)
		s.blk, s.pos = body, 0
		return nil
	}
	bd := blockDecoders.Get().(*blockDecoder)
	defer blockDecoders.Put(bd)
	if uint64(cap(bd.body)) < storedLen {
		bd.body = make([]byte, storedLen)
	}
	body := bd.body[:storedLen]
	if _, err := io.ReadFull(s.br, body); err != nil {
		return unexpectedEOF(err)
	}
	s.rem -= int64(storedLen)
	raw := make([]byte, rawLen)
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
				ErrBlockSizeMismatch, got, rawLen)
		}
		return fmt.Errorf("spill: corrupt flate block: %w", err)
	}
	var one [1]byte
	if m, _ := bd.fr.Read(one[:]); m != 0 {
		return fmt.Errorf("%w: flate block inflates beyond declared %d raw bytes",
			ErrBlockSizeMismatch, rawLen)
	}
	s.blk, s.pos = raw, 0
	return nil
}

// blockDecoder is the pooled scratch of one flate block's decode: the
// stored body, a reader over it and the inflater, Reset per block instead
// of being built per block. The inflated bytes are not part of it — records
// alias them.
type blockDecoder struct {
	body []byte
	src  bytes.Reader
	fr   io.ReadCloser
}

var blockDecoders = sync.Pool{New: func() any {
	return &blockDecoder{fr: flate.NewReader(bytes.NewReader(nil))}
}}

// unexpectedEOF upgrades a mid-record io.EOF to io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

var errVarintOverflow = errors.New("spill: varint overflows a 64-bit integer")

// readUvarint decodes one varint from br, additionally reporting how many
// bytes it consumed — binary.ReadUvarint's count is recomputable only for
// minimally-encoded values, and precise remainder tracking must charge the
// bytes actually read, not the shortest re-encoding.
func readUvarint(br *bufio.Reader) (uint64, int, error) {
	var x uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return 0, i, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, i + 1, errVarintOverflow
			}
			return x | uint64(b)<<shift, i + 1, nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, binary.MaxVarintLen64, errVarintOverflow
}

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
