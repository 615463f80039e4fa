package spill

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"testing/quick"

	"m3r/internal/types"
	"m3r/internal/wio"
)

// writeRecs writes recs as a codec-none segment to a fresh file and returns
// its path and length.
func writeRecs(t testing.TB, recs []Rec) (string, int64) {
	t.Helper()
	enc, err := EncodeRun(recs, CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seg")
	n, err := WriteEncodedFile(path, enc)
	if err != nil {
		t.Fatal(err)
	}
	return path, n
}

// storedLen is the length of recs' codec-none segment worked out from the
// layout's definition: nothing for no records, else the 6-byte header plus,
// per block cut where its raw bytes reach blockRawTarget, a codec byte, the
// raw and stored lengths as uvarints, and the records themselves.
func storedLen(recs []Rec) int64 {
	if len(recs) == 0 {
		return 0
	}
	n, block := int64(segHeaderLen), int64(0)
	for i, r := range recs {
		block += r.EncodedLen()
		if block >= blockRawTarget || i == len(recs)-1 {
			n += 1 + 2*int64(uvarintLen(uint64(block))) + block
			block = 0
		}
	}
	return n
}

// rawLen is recs' length in the record format.
func rawLen(recs []Rec) int64 {
	var n int64
	for _, r := range recs {
		n += r.EncodedLen()
	}
	return n
}

// readAll drains a stream into copies of its records, failing the test on
// error: a record's bytes are the stream's only until its next block.
func readAll(t *testing.T, s *Stream) []Rec {
	t.Helper()
	var out []Rec
	for {
		r, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, cloneRec(r))
	}
}

// cloneRec copies r out of its stream's block.
func cloneRec(r Rec) Rec {
	return Rec{K: bytes.Clone(r.K), V: bytes.Clone(r.V)}
}

func TestRecRoundTrip(t *testing.T) {
	recs := []Rec{
		{K: []byte("key1"), V: []byte("value1")},
		{K: []byte{}, V: []byte("empty key")},
		{K: []byte("k"), V: []byte{}},
		{K: nil, V: nil},
	}
	path, total := writeRecs(t, recs)
	s, err := OpenSegment(path, Segment{Off: 0, Len: total})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := readAll(t, s)
	if len(got) != len(recs) {
		t.Fatalf("read %d recs, want %d", len(got), len(recs))
	}
	for i, want := range recs {
		if string(got[i].K) != string(want.K) || string(got[i].V) != string(want.V) {
			t.Fatalf("rec %d mismatch", i)
		}
	}
}

// TestRecRoundTripProperty is the property form: arbitrary byte contents
// (including large values that cross the bufio boundary) survive the
// write/read cycle, in order.
func TestRecRoundTripProperty(t *testing.T) {
	f := func(keys [][]byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Rec, len(keys))
		for i, k := range keys {
			v := make([]byte, rng.Intn(9000)) // may exceed bufio's 4096 default
			rng.Read(v)
			recs[i] = Rec{K: k, V: v}
		}
		path, n := writeRecs(t, recs)
		s, err := OpenSegment(path, Segment{Off: 0, Len: n})
		if err != nil {
			return false
		}
		defer s.Close()
		for _, want := range recs {
			got, ok, err := s.Next()
			if err != nil || !ok {
				return false
			}
			if !bytes.Equal(got.K, want.K) || !bytes.Equal(got.V, want.V) {
				return false
			}
		}
		_, ok, err := s.Next()
		return !ok && err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// drainErr opens seg of path and reads it to its end, returning the first
// error at open or at Next — nil only for a stream that ends cleanly.
func drainErr(path string, seg Segment) error {
	s, err := OpenSegment(path, seg)
	if err != nil {
		return err
	}
	defer s.Close()
	for {
		_, ok, err := s.Next()
		if err != nil || !ok {
			return err
		}
	}
}

// TestTruncatedSegmentIsAnError pins the truncation bugfix: a segment whose
// file ends before the declared length must surface io.ErrUnexpectedEOF —
// at open when the cut is inside the header, at Next after it — never a
// silent ok=false that drops the remaining records. Every truncation point
// of a one-block segment is tried, block boundaries included, and a
// stride of them through a segment of several stored blocks; and every one
// of a grouped segment, in one block and with its groups cut across small
// blocks.
func TestTruncatedSegmentIsAnError(t *testing.T) {
	small := []Rec{
		{K: []byte("aa"), V: []byte("11")},
		{K: []byte("bb"), V: []byte("2222")},
		{K: []byte("cc"), V: []byte("3")},
	}
	groups := []Rec{
		{K: []byte("aa"), V: []byte("11")},
		{K: []byte("bb"), V: []byte("2222")},
		{K: []byte("bb"), V: []byte("2")},
		{K: []byte("bb"), V: nil},
		{K: []byte("bb"), V: []byte("22")},
		{K: []byte("cc"), V: []byte("3")},
	}
	base := OpenStreamCount()
	for _, c := range []struct {
		recs       []Rec
		stride     int64
		groupBlock int64 // grouped segment, blocks cut at this many bytes (0: 64 KiB)
	}{{small, 1, -1}, {compressibleRecs(4000), 997, -1}, {groups, 1, 0}, {groups, 1, 6}} {
		path, total := writeRecs(t, c.recs)
		if c.groupBlock >= 0 {
			GroupedBlockBytes.Store(c.groupBlock)
			var enc EncodedRun
			path, enc = writeGrouped(t, c.recs, CodecNone)
			total = int64(len(enc.Data))
			GroupedBlockBytes.Store(0)
		}
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(full)) != total {
			t.Fatalf("file is %d bytes, writer reported %d", len(full), total)
		}
		for cut := int64(0); cut < total; cut += c.stride {
			trunc := filepath.Join(t.TempDir(), "trunc")
			if err := os.WriteFile(trunc, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			// The segment still claims the full length; the bytes are missing.
			if err := drainErr(trunc, Segment{Off: 0, Len: total}); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d of %d: got %v, want io.ErrUnexpectedEOF", cut, total, err)
			}
		}
	}
	if n := OpenStreamCount(); n != base {
		t.Fatalf("OpenStreamCount=%d baseline %d: leaked streams", n, base)
	}
}

// TestShortSegmentLengthIsAnError covers the other truncation shape: the
// file is intact but the segment's declared length cuts the header or the
// block in half.
func TestShortSegmentLengthIsAnError(t *testing.T) {
	recs := []Rec{{K: []byte("key"), V: []byte("value")}}
	path, total := writeRecs(t, recs)
	for cut := int64(1); cut < total; cut++ {
		if err := drainErr(path, Segment{Off: 0, Len: cut}); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("len %d of %d: err=%v, want io.ErrUnexpectedEOF", cut, total, err)
		}
	}
}

// TestSegmentWithoutMagicIsNotASegment: a non-empty byte range that does not
// lead with the segment magic — the raw record stream earlier builds wrote,
// or a range read at the wrong offset — fails at open with ErrNotSegment,
// distinct from truncation, and leaves no stream slot behind; a zero-length
// range is the empty segment.
func TestSegmentWithoutMagicIsNotASegment(t *testing.T) {
	base := OpenStreamCount()
	recs := []Rec{{K: []byte("key"), V: []byte("value")}, {K: nil, V: nil}}
	var rawStream []byte
	for _, r := range recs {
		rawStream = AppendRec(rawStream, r)
	}
	path, total := writeRecs(t, recs)
	bad := filepath.Join(t.TempDir(), "raw")
	if err := os.WriteFile(bad, rawStream, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		path string
		seg  Segment
	}{
		"raw record stream":  {bad, Segment{Len: int64(len(rawStream))}},
		"one raw byte":       {bad, Segment{Len: 1}},
		"offset into blocks": {path, Segment{Off: 1, Len: total - 1}},
	} {
		if _, err := OpenSegment(c.path, c.seg); !errors.Is(err, ErrNotSegment) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err=%v, want ErrNotSegment alone", name, err)
		}
	}
	if err := drainErr(bad, Segment{Off: 3, Len: 0}); err != nil {
		t.Errorf("zero-length range: %v, want the empty segment", err)
	}
	if n := OpenStreamCount(); n != base {
		t.Fatalf("OpenStreamCount=%d baseline %d", n, base)
	}
}

func TestSortRecsMatchesValues(t *testing.T) {
	f := func(vals []int32) bool {
		recs := make([]Rec, len(vals))
		for i, v := range vals {
			b, _ := wio.Marshal(types.NewInt(v))
			recs[i] = Rec{K: b, V: nil}
		}
		SortRecs(recs, types.IntRawComparator{})
		sorted := append([]int32(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range sorted {
			out := &types.IntWritable{}
			if wio.Unmarshal(recs[i].K, out) != nil {
				return false
			}
			if out.Get() != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStreamAccounting pins the open-segment bookkeeping leak tests
// rely on: every OpenSegment raises the count by one, Close lowers it
// exactly once no matter how many teardown paths call it.
func TestOpenStreamAccounting(t *testing.T) {
	base := OpenStreamCount()
	path, total := writeRecs(t, []Rec{{K: []byte("k"), V: []byte("v")}})
	s1, err := OpenSegment(path, Segment{Off: 0, Len: total})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSegment(path, Segment{Off: 0, Len: total})
	if err != nil {
		t.Fatal(err)
	}
	if n := OpenStreamCount(); n != base+2 {
		t.Fatalf("after two opens: count %d, want %d", n, base+2)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil { // double close must not double-decrement
		t.Fatal(err)
	}
	if n := OpenStreamCount(); n != base+1 {
		t.Fatalf("after closing one stream twice: count %d, want %d", n, base+1)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if n := OpenStreamCount(); n != base {
		t.Fatalf("after closing both: count %d, want %d", n, base)
	}
}

func TestUvarintLen(t *testing.T) {
	cases := map[uint64]int{0: 1, 127: 1, 128: 2, 16383: 2, 16384: 3}
	for v, want := range cases {
		if got := uvarintLen(v); got != want {
			t.Errorf("uvarintLen(%d)=%d, want %d", v, got, want)
		}
	}
}

// FuzzStreamNext feeds arbitrary bytes through a Stream: it must never
// panic, a non-empty input without the segment magic must be refused at
// open, and whatever prefix parses as records must survive a rewrite.
func FuzzStreamNext(f *testing.F) {
	f.Add([]byte{})
	// Raw record streams, the layout earlier builds wrote: none of them is a
	// segment any more, and each must be refused at open.
	f.Add([]byte{0, 0})                         // one empty record
	f.Add([]byte{2, 'a', 'b', 1, 'x'})          // one normal record
	f.Add([]byte{2, 'a'})                       // truncated key
	f.Add([]byte{0x80})                         // truncated varint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // huge length, no bytes
	f.Add([]byte{3, 'a', 'b', 'c', 8, 'x', 'y', 'z'})
	// Segment seeds: a valid segment of each codec and corrupted variants,
	// so the fuzzer starts with the magic and explores block framing.
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		enc, err := EncodeRun([]Rec{{K: []byte("fuzz"), V: []byte("seed seed seed")}}, codec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc.Data)
		tampered := append([]byte(nil), enc.Data...)
		tampered[len(tampered)-1] ^= 0xff
		f.Add(tampered)
		short := append([]byte(nil), enc.Data[:len(enc.Data)/2]...)
		f.Add(short)
	}
	f.Add(append(append([]byte{}, segMagic[:]...), layoutRecords, byte(CodecFlate), byte(CodecFlate), 0x05, 0x01, 'x'))
	for _, seed := range groupedSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Oversized length prefixes would make the reader allocate the
		// declared size before discovering the bytes are missing; cap the
		// input so fuzzing explores structure, not allocator limits.
		if len(data) > 1<<16 {
			return
		}
		path := filepath.Join(t.TempDir(), "fuzz")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		streamBase := OpenStreamCount()
		s, err := OpenSegment(path, Segment{Off: 0, Len: int64(len(data))})
		if m := min(len(data), len(segMagic)); !bytes.Equal(data[:m], segMagic[:m]) && !errors.Is(err, ErrNotSegment) {
			t.Fatalf("input without the segment magic opened with err=%v, want ErrNotSegment", err)
		}
		if err != nil {
			// A cut header, bad version or codec, or no magic at all is
			// rejected at open — loudly, which is the contract; rejection
			// must not leak the stream slot.
			if got := OpenStreamCount(); got != streamBase {
				t.Fatalf("OpenSegment errored but OpenStreamCount=%d (baseline %d)", got, streamBase)
			}
			return
		}
		if len(data) > 0 && !bytes.HasPrefix(data, segMagic[:]) {
			t.Fatal("a non-empty input without the full segment magic opened")
		}
		defer s.Close()
		var parsed []Rec
		for {
			r, ok, err := s.Next()
			if err != nil {
				return // malformed tail: fine, as long as it is reported
			}
			if !ok {
				break
			}
			if len(r.K)+len(r.V) > len(data) {
				t.Fatalf("record larger than input: %d+%d bytes", len(r.K), len(r.V))
			}
			parsed = append(parsed, cloneRec(r))
		}
		// Whatever parsed must survive a canonical re-serialization cycle
		// unchanged, in either layout (varint length prefixes in arbitrary
		// input may be non-minimal, so byte-identity with the input is not
		// required).
		out, n := writeRecs(t, parsed)
		grouped, _ := writeGrouped(t, parsed, CodecNone)
		for _, seg := range []struct {
			path string
			len  int64
		}{{out, n}, {grouped, -1}} {
			var s2 *Stream
			if seg.len < 0 {
				s2, err = OpenFile(seg.path)
			} else {
				s2, err = OpenSegment(seg.path, Segment{Off: 0, Len: seg.len})
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, s2); !recsEqual(got, parsed) {
				t.Fatalf("%d records rewritten to %s read back as %d others", len(parsed), seg.path, len(got))
			}
			s2.Close()
		}
	})
}

// TestEncodedLenMatchesBytesOnDisk pins the spill accounting to ground
// truth: for every record shape — none at all, empty keys and values,
// multi-byte varint lengths, fuzzer-shaped mixes, several blocks and a
// record bigger than a block — a codec-none run's Raw is the records'
// EncodedLen sum (SPILLED_RAW_BYTES), and the bytes it stores
// (SPILLED_BYTES), WriteEncodedFile's return and the file on disk are that
// plus exactly the framing the layout defines. If the record or block
// framing ever changes, this is the test that catches the formulas
// drifting from the bytes.
func TestEncodedLenMatchesBytesOnDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	blob := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	cases := [][]Rec{
		nil,
		{{K: nil, V: nil}},
		{{K: []byte("k"), V: nil}, {K: nil, V: []byte("v")}},
		{{K: blob(127), V: blob(128)}}, // 1- vs 2-byte varint boundary
		{{K: blob(300), V: blob(20000)}},
		{{K: blob(1), V: blob(1)}, {K: blob(5000), V: blob(3)}, {K: nil, V: blob(129)}},
		compressibleRecs(4000),                                        // three blocks
		{{K: blob(3), V: blob(blockRawTarget + 5)}, {K: nil, V: nil}}, // one oversized block, then a tiny one
	}
	for i, recs := range cases {
		enc, err := EncodeRun(recs, CodecNone)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		var raw int64
		for _, r := range recs {
			raw += int64(len(AppendRec(nil, r)))
		}
		if enc.Raw != raw {
			t.Errorf("case %d: Raw=%d, the records are %d bytes", i, enc.Raw, raw)
		}
		if want := storedLen(recs); int64(len(enc.Data)) != want {
			t.Errorf("case %d: %d stored bytes for %d raw, the framing formula says %d", i, len(enc.Data), raw, want)
		}
		path := filepath.Join(t.TempDir(), "run")
		n, err := WriteEncodedFile(path, enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if st.Size() != n {
			t.Errorf("case %d: file is %d bytes, accounting says %d", i, st.Size(), n)
		}
	}
}

// --- block-compressed format ---

// compressibleRecs builds n sorted-looking records with repetitive keys —
// the shape block compression exists for.
func compressibleRecs(n int) []Rec {
	recs := make([]Rec, n)
	for i := range recs {
		recs[i] = Rec{
			K: []byte(fmt.Sprintf("word_prefix_shared_%06d", i)),
			V: []byte("count=1;count=1;count=1"),
		}
	}
	return recs
}

// TestCodecRoundTrip pins the codecs' core contract: for every codec the
// records read back byte-identical, CodecNone costs exactly its framing,
// and flate actually shrinks repetitive multi-block runs.
func TestCodecRoundTrip(t *testing.T) {
	recs := compressibleRecs(5000) // ~230 KiB raw: several 64 KiB blocks
	raw := rawLen(recs)
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		t.Run(codec.String(), func(t *testing.T) {
			enc, err := EncodeRun(recs, codec)
			if err != nil {
				t.Fatal(err)
			}
			if enc.Raw != raw {
				t.Fatalf("EncodedRun.Raw=%d, want %d", enc.Raw, raw)
			}
			path := filepath.Join(t.TempDir(), "run")
			n, err := WriteEncodedFile(path, enc)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(enc.Data)) {
				t.Fatalf("WriteEncodedFile returned %d, data is %d bytes", n, len(enc.Data))
			}
			switch codec {
			case CodecNone:
				if want := storedLen(recs); n != want {
					t.Fatalf("codec none wrote %d bytes, stored blocks are %d", n, want)
				}
			case CodecFlate:
				if n >= raw {
					t.Fatalf("flate stored %d bytes >= raw %d on repetitive data", n, raw)
				}
			}
			s, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			got := readAll(t, s)
			if len(got) != len(recs) {
				t.Fatalf("read %d recs, want %d", len(got), len(recs))
			}
			for i := range recs {
				if !bytes.Equal(got[i].K, recs[i].K) || !bytes.Equal(got[i].V, recs[i].V) {
					t.Fatalf("rec %d differs under codec %s", i, codec)
				}
			}
		})
	}
}

// TestCodecRoundTripProperty: arbitrary (incompressible, oddly sized)
// records survive flate block framing too — including records larger than
// the block target, which must land in their own oversized block.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(keys [][]byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Rec, len(keys))
		for i, k := range keys {
			v := make([]byte, rng.Intn(3*blockRawTarget/len(recs)+16))
			rng.Read(v)
			recs[i] = Rec{K: k, V: v}
		}
		enc, err := EncodeRun(recs, CodecFlate)
		if err != nil {
			return false
		}
		path := filepath.Join(t.TempDir(), "prop")
		if _, err := WriteEncodedFile(path, enc); err != nil {
			return false
		}
		s, err := OpenFile(path)
		if err != nil {
			return false
		}
		defer s.Close()
		for _, want := range recs {
			got, ok, err := s.Next()
			if err != nil || !ok {
				return false
			}
			if !bytes.Equal(got.K, want.K) || !bytes.Equal(got.V, want.V) {
				return false
			}
		}
		_, ok, err := s.Next()
		return !ok && err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentWriterMultiSegmentFile drives the Hadoop shape under both
// codecs: several segments (one per partition) share one file, each with
// its own header unless it is empty and each byte for byte what EncodeRun
// gives its records, and a byte-range copy of one segment — the reducer's
// shuffle fetch — stays self-describing at offset zero of the copy.
func TestSegmentWriterMultiSegmentFile(t *testing.T) {
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		t.Run(codec.String(), func(t *testing.T) { testMultiSegmentFile(t, codec) })
	}
}

func testMultiSegmentFile(t *testing.T, codec Codec) {
	parts := [][]Rec{compressibleRecs(3000), compressibleRecs(40), nil, {{K: []byte("k"), V: []byte("v")}}}
	path := filepath.Join(t.TempDir(), "file.out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	var segs []Segment
	var off int64
	for _, recs := range parts {
		sw := NewSegmentWriter(w, codec)
		for _, r := range recs {
			if err := sw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		n, raw, err := sw.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if raw != rawLen(recs) {
			t.Fatalf("segment raw=%d want %d", raw, rawLen(recs))
		}
		segs = append(segs, Segment{Off: off, Len: n})
		off += n
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(path string, seg Segment, want []Rec) {
		t.Helper()
		s, err := OpenSegment(path, seg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got := readAll(t, s)
		if len(got) != len(want) {
			t.Fatalf("segment read %d recs, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].K, want[i].K) || !bytes.Equal(got[i].V, want[i].V) {
				t.Fatalf("rec %d differs", i)
			}
		}
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for p, recs := range parts {
		check(path, segs[p], recs)
		enc, err := EncodeRun(recs, codec)
		if err != nil {
			t.Fatal(err)
		}
		if got := full[segs[p].Off : segs[p].Off+segs[p].Len]; !bytes.Equal(got, enc.Data) {
			t.Fatalf("partition %d: SegmentWriter wrote %d bytes, EncodeRun gives %d, or different ones", p, len(got), len(enc.Data))
		}
		if (len(recs) == 0) != (segs[p].Len == 0) || len(recs) > 0 && !bytes.HasPrefix(enc.Data, segMagic[:]) {
			t.Fatalf("partition %d: %d records in %d bytes; want a header-led segment, or none for no records", p, len(recs), segs[p].Len)
		}
	}
	// Fetch simulation: copy partition 1's byte range into its own file.
	seg := segs[1]
	fetched := filepath.Join(t.TempDir(), "seg_000001")
	if err := os.WriteFile(fetched, full[seg.Off:seg.Off+seg.Len], 0o644); err != nil {
		t.Fatal(err)
	}
	check(fetched, Segment{Off: 0, Len: seg.Len}, parts[1])
}

// TestTruncatedCompressedSegmentIsAnError: every truncation point of a
// block-compressed segment — mid segment header, mid block header, mid
// compressed body — surfaces a loud error, never a silent short stream,
// with no stream leaked past its Close.
func TestTruncatedCompressedSegmentIsAnError(t *testing.T) {
	enc, err := EncodeRun(compressibleRecs(300), CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	base := OpenStreamCount()
	total := int64(len(enc.Data))
	for cut := int64(0); cut < total; cut++ {
		path := filepath.Join(t.TempDir(), "trunc")
		if err := os.WriteFile(path, enc.Data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// The segment still claims the full length; the bytes are missing.
		s, err := OpenSegment(path, Segment{Off: 0, Len: total})
		if err != nil {
			continue // truncated inside the segment header: loud at open
		}
		sawErr := false
		for {
			_, ok, err := s.Next()
			if err != nil {
				sawErr = true
				break
			}
			if !ok {
				break
			}
		}
		s.Close()
		if !sawErr {
			t.Fatalf("cut %d of %d: truncated compressed segment read to a silent end-of-stream", cut, total)
		}
	}
	if n := OpenStreamCount(); n != base {
		t.Fatalf("OpenStreamCount=%d baseline %d: leaked streams", n, base)
	}
}

// blockSegment hand-assembles a single-block compressed segment with the
// given header fields, for corrupting them independently of the writer.
func blockSegment(t *testing.T, blockCodec Codec, rawLen uint64, body []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	b.Write(segMagic[:])
	b.WriteByte(layoutRecords)
	b.WriteByte(byte(CodecFlate))
	b.WriteByte(byte(blockCodec))
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], rawLen)])
	b.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(body)))])
	b.Write(body)
	return b.Bytes()
}

// deflate compresses b with the codec the writer uses.
func deflate(t *testing.T, b []byte) []byte {
	t.Helper()
	var c bytes.Buffer
	fw, err := flate.NewWriter(&c, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return c.Bytes()
}

// TestBlockSizeMismatchIsAnError: a block whose body inflates to more or
// fewer bytes than its header's raw length — and a stored block whose two
// lengths disagree, and a flate block declaring an impossible expansion —
// all surface ErrBlockSizeMismatch.
func TestBlockSizeMismatchIsAnError(t *testing.T) {
	payload := AppendRec(nil, Rec{K: []byte("abc"), V: []byte("defgh")})
	comp := deflate(t, payload)
	cases := map[string][]byte{
		// Declares one byte more than the body inflates to.
		"inflates short": blockSegment(t, CodecFlate, uint64(len(payload))+1, comp),
		// Declares one byte fewer than the body inflates to.
		"inflates beyond": blockSegment(t, CodecFlate, uint64(len(payload))-1, comp),
		// Stored block with disagreeing lengths.
		"stored mismatch": blockSegment(t, CodecNone, uint64(len(payload))+3, payload),
		// rawLen beyond flate's possible expansion: must be rejected before
		// the reader allocates it.
		"implausible rawLen": blockSegment(t, CodecFlate, 1<<40, comp),
	}
	base := OpenStreamCount()
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "seg")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			_, ok, err := s.Next()
			if ok || !errors.Is(err, ErrBlockSizeMismatch) {
				t.Fatalf("ok=%v err=%v, want ErrBlockSizeMismatch", ok, err)
			}
		})
	}
	if n := OpenStreamCount(); n != base {
		t.Fatalf("OpenStreamCount=%d baseline %d", n, base)
	}
}

// TestUnknownCodecIsAnError: an unknown codec id in the segment header
// fails at open (before any record is surfaced); in a block header it
// fails at Next. Both carry ErrUnknownCodec, as does ParseCodec on an
// unknown name.
func TestUnknownCodecIsAnError(t *testing.T) {
	base := OpenStreamCount()
	payload := AppendRec(nil, Rec{K: []byte("k"), V: []byte("v")})

	seg := blockSegment(t, CodecNone, uint64(len(payload)), payload)
	seg[5] = 99 // segment codec byte
	path := filepath.Join(t.TempDir(), "badseg")
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("segment-header codec 99: err=%v, want ErrUnknownCodec", err)
	}

	blk := blockSegment(t, CodecNone, uint64(len(payload)), payload)
	blk[6] = 7 // block codec byte
	path2 := filepath.Join(t.TempDir(), "badblk")
	if err := os.WriteFile(path2, blk, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Next(); ok || !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("block-header codec 7: ok=%v err=%v, want ErrUnknownCodec", ok, err)
	}
	s.Close()

	if _, err := ParseCodec("zstd"); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("ParseCodec(zstd)=%v, want ErrUnknownCodec", err)
	}
	if n := OpenStreamCount(); n != base {
		t.Fatalf("OpenStreamCount=%d baseline %d", n, base)
	}
}

// TestUnsupportedVersionIsAnError: a segment header from a future format
// version fails at open instead of being misparsed.
func TestUnsupportedVersionIsAnError(t *testing.T) {
	payload := AppendRec(nil, Rec{K: []byte("k"), V: []byte("v")})
	seg := blockSegment(t, CodecNone, uint64(len(payload)), payload)
	seg[4] = layoutGrouped + 1
	path := filepath.Join(t.TempDir(), "future")
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version opened: err=%v", err)
	}
}

// --- bugfix pins ---

// failAfterWriter fails with ENOSPC once n bytes have been accepted.
type failAfterWriter struct {
	w io.Writer
	n int
}

func (fw *failAfterWriter) Write(p []byte) (int, error) {
	if fw.n <= 0 {
		return 0, syscall.ENOSPC
	}
	if len(p) > fw.n {
		n, _ := fw.w.Write(p[:fw.n])
		fw.n = 0
		return n, syscall.ENOSPC
	}
	n, err := fw.w.Write(p)
	fw.n -= n
	return n, err
}

// swapRunFileWriter installs a fault-injecting run-file writer.
func swapRunFileWriter(t *testing.T, fn func(f *os.File) io.Writer) {
	t.Helper()
	orig := runFileWriter
	runFileWriter = fn
	t.Cleanup(func() { runFileWriter = orig })
}

// TestWriteEncodedFileRemovesPartialOnError pins the write-error cleanup
// fix: an ENOSPC mid-write must surface the error AND remove the partial
// file — a failed spill must not strand garbage in scratch — wherever the
// disk fills: before the first byte, inside the header, mid-block.
func TestWriteEncodedFileRemovesPartialOnError(t *testing.T) {
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		enc, err := EncodeRun(compressibleRecs(1000), codec)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{0, 5, len(enc.Data) / 2} {
			swapRunFileWriter(t, func(f *os.File) io.Writer { return &failAfterWriter{w: f, n: budget} })
			path := filepath.Join(t.TempDir(), "run")
			if _, err := WriteEncodedFile(path, enc); !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("%s, budget %d: err=%v, want ENOSPC", codec, budget, err)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s, budget %d: partial run file left on disk (stat err=%v)", codec, budget, err)
			}
		}
	}
}

// TestStraddlingValueRejectedBeforeAllocation pins the exact-bounds decode
// fix on stored blocks: a length that exceeds the bytes actually there must
// be rejected before a buffer of that length is allocated. In the block,
// the value claims another MiB after a 1 MiB key, where only its own varint
// remains; at the block level, a stored block claims a MiB more than its
// segment holds. Both are io.ErrUnexpectedEOF, and neither allocates the
// claimed megabyte.
func TestStraddlingValueRejectedBeforeAllocation(t *testing.T) {
	const keyLen = 1 << 20
	body := append(binary.AppendUvarint(nil, keyLen), make([]byte, keyLen)...)
	body = binary.AppendUvarint(body, keyLen)
	straddling := blockSegment(t, CodecNone, uint64(len(body)), body)
	// The same block, declaring a MiB more than follows it.
	claim := uint64(len(body)) + keyLen
	overlong := append(straddling[:segHeaderLen+1:segHeaderLen+1], binary.AppendUvarint(binary.AppendUvarint(nil, claim), claim)...)
	overlong = append(overlong, body...)
	for name, c := range map[string]struct {
		data  []byte
		limit uint64 // what Next may allocate: the block it really holds
	}{
		"value past its block":   {straddling, keyLen + keyLen/2},
		"block past its segment": {overlong, keyLen / 2},
	} {
		path := filepath.Join(t.TempDir(), "straddle")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, ok, err := s.Next()
		runtime.ReadMemStats(&after)
		s.Close()
		if ok || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: ok=%v err=%v, want io.ErrUnexpectedEOF", name, ok, err)
		}
		if delta := after.TotalAlloc - before.TotalAlloc; delta > c.limit {
			t.Fatalf("%s: Next allocated %d bytes; the claimed length was not rejected before allocation", name, delta)
		}
	}
}
