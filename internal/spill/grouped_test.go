package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"m3r/internal/types"
	"m3r/internal/wio"
)

// groupedRecs is a sorted run with every grouped shape: one-value groups,
// short ones, a hot key whose values fill several blocks, and a value
// larger than a block inside a group.
func groupedRecs() []Rec {
	var recs []Rec
	add := func(k string, n int, v func(i int) []byte) {
		for i := 0; i < n; i++ {
			recs = append(recs, Rec{K: []byte(k), V: v(i)})
		}
	}
	small := func(i int) []byte { return []byte(fmt.Sprintf("v%06d", i)) }
	for i := 0; i < 50; i++ {
		add(fmt.Sprintf("a%03d", i), 1+i%5, small)
	}
	add("hot", 20000, small) // 8 bytes a value: into a third block
	add("hotter", 3, func(i int) []byte {
		if i == 1 {
			return bytes.Repeat([]byte("big value "), 10<<10) // past the block target
		}
		return small(i)
	})
	add("z", 1, small)
	return recs
}

// withGroupedBlocks cuts grouped blocks at n raw bytes for the rest of t.
func withGroupedBlocks(t testing.TB, n int64) {
	GroupedBlockBytes.Store(n)
	t.Cleanup(func() { GroupedBlockBytes.Store(0) })
}

// writeGrouped writes recs as a grouped segment to a fresh file.
func writeGrouped(t testing.TB, recs []Rec, codec Codec) (string, EncodedRun) {
	t.Helper()
	enc, err := EncodeGroupedRun(recs, codec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grouped")
	if _, err := WriteEncodedFile(path, enc); err != nil {
		t.Fatal(err)
	}
	return path, enc
}

// groupedBlocks parses a grouped segment's stored blocks into their raw
// bytes.
func groupedBlocks(t *testing.T, data []byte) [][]byte {
	t.Helper()
	if !bytes.HasPrefix(data, append(segMagic[:], layoutGrouped, byte(CodecNone))) {
		t.Fatalf("segment header % x is not a stored grouped segment's", data[:min(len(data), segHeaderLen)])
	}
	var blocks [][]byte
	for b := data[segHeaderLen:]; len(b) > 0; {
		rawLen, w1 := binary.Uvarint(b[1:])
		storedLen, w2 := binary.Uvarint(b[1+w1:])
		if b[0] != byte(CodecNone) || rawLen != storedLen {
			t.Fatalf("block %d: codec %d, raw %d, stored %d", len(blocks), b[0], rawLen, storedLen)
		}
		b = b[1+w1+w2:]
		blocks, b = append(blocks, b[:rawLen]), b[rawLen:]
	}
	return blocks
}

// TestEncodeGroupedRoundTrip: a run laid out grouped encodes to the bytes
// EncodeGroupedRun gives its records, under either codec; every stored
// block is whole groups, each decoding on its own, the hot group's blocks
// each restating its key; the raw length is the blocks' and the stored one
// that plus the framing; the records read back as they went in; no record
// is no bytes; and a run that is not whole groups is refused.
func TestEncodeGroupedRoundTrip(t *testing.T) {
	recs := groupedRecs()
	seg := AppendGrouped(nil, recs)
	if int64(len(seg)) != GroupedLen(recs) {
		t.Fatalf("AppendGrouped lays out %d bytes, GroupedLen says %d", len(seg), GroupedLen(recs))
	}
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		path, want := writeGrouped(t, recs, codec)
		got, err := EncodeGrouped(seg, codec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, want.Data) || got.Raw != want.Raw {
			t.Errorf("%s: EncodeGrouped gives %d bytes (raw %d), EncodeGroupedRun %d (raw %d), or different ones",
				codec, len(got.Data), got.Raw, len(want.Data), want.Raw)
		}
		if codec == CodecNone {
			var raw, framing int64
			var back []Rec
			blocks := groupedBlocks(t, got.Data)
			for i, b := range blocks {
				raw += int64(len(b))
				framing += int64(1 + 2*uvarintLen(uint64(len(b))))
				var c GroupCursor
				c.Reset(b)
				for {
					r, ok, err := c.Next()
					if err != nil {
						t.Fatalf("block %d does not decode on its own: %v", i, err)
					}
					if !ok {
						break
					}
					back = append(back, r)
				}
				if i > 0 && i < len(blocks)-1 && !bytes.HasPrefix(b, appendField(nil, []byte("hot"))) {
					t.Errorf("block %d does not open by restating a hot key", i)
				}
			}
			if len(blocks) < 4 {
				t.Errorf("%d blocks, want the hot group across several and the big value in one of its own", len(blocks))
			}
			if raw != got.Raw || int64(len(got.Data)) != int64(segHeaderLen)+framing+raw {
				t.Errorf("%d stored bytes, raw %d: the blocks are %d raw bytes and %d of framing", len(got.Data), got.Raw, raw, framing)
			}
			if !recsEqual(back, recs) {
				t.Error("the blocks' records are not the run's")
			}
		}
		s, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if back := readAll(t, s); !recsEqual(back, recs) {
			t.Errorf("%s: the stream reads %d records that are not the run's %d", codec, len(back), len(recs))
		}
		s.Close()
		for _, empty := range [][]byte{nil, {}} {
			if er, err := EncodeGrouped(empty, codec); err != nil || len(er.Data) != 0 || er.Raw != 0 {
				t.Errorf("%s: an empty run encodes to %d bytes (raw %d), err %v", codec, len(er.Data), er.Raw, err)
			}
		}
		for _, cut := range []int{1, len(seg) - 1} {
			if _, err := EncodeGrouped(seg[:cut], codec); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s: run cut at %d: err %v, want io.ErrUnexpectedEOF", codec, cut, err)
			}
		}
		if _, err := EncodeGrouped([]byte{1, 'k', 0}, codec); !errors.Is(err, errEmptyGroup) {
			t.Errorf("%s: a group of no value: err %v, want errEmptyGroup", codec, err)
		}
	}
}

func recsEqual(a, b []Rec) bool {
	return slices.EqualFunc(a, b, func(x, y Rec) bool { return bytes.Equal(x.K, y.K) && bytes.Equal(x.V, y.V) })
}

// TestGroupedRecordsShareTheirGroupsKey: read back from a grouped segment,
// the records of one group in one block carry one key slice — what tells a
// merge that a record continues its source's group — and a group's first
// record in a block carries a slice of its own, restated there.
func TestGroupedRecordsShareTheirGroupsKey(t *testing.T) {
	withGroupedBlocks(t, 40)
	var recs []Rec
	for i, k := range []string{"a", "bb", "bb", "bb", "bb", "bb", "bb", "bb", "bb", "c", "c", "dd"} {
		recs = append(recs, Rec{K: []byte(k), V: []byte(fmt.Sprintf("value%d", i))})
	}
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		path, _ := writeGrouped(t, recs, codec)
		s, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var prev Rec
		var shared, restated int
		for i := 0; ; i++ {
			r, ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if !bytes.Equal(r.K, recs[i].K) || !bytes.Equal(r.V, recs[i].V) {
				t.Fatalf("record %d is %q=%q, want %q=%q", i, r.K, r.V, recs[i].K, recs[i].V)
			}
			if i > 0 && bytes.Equal(r.K, prev.K) {
				if &r.K[0] == &prev.K[0] {
					shared++
				} else {
					restated++
				}
			}
			prev = r
		}
		s.Close()
		// 8 records follow one of their own key; 40-byte blocks cut bb after
		// its fourth value and c after its first, so each restates its key
		// once.
		if shared+restated != 8 || restated != 2 {
			t.Errorf("%s: %d records share their group's key slice and %d restate it, want 6 and 2", codec, shared, restated)
		}
	}
}

// TestGroupedLenMatchesAppendGrouped is the layout's property: whatever the
// records and their order, GroupedLen is AppendGrouped's length and a
// cursor reads the records back.
func TestGroupedLenMatchesAppendGrouped(t *testing.T) {
	f := func(keys []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Rec, len(keys))
		for i, k := range keys {
			v := make([]byte, rng.Intn(300))
			rng.Read(v)
			recs[i] = Rec{K: bytes.Repeat([]byte{'k'}, int(k%4)), V: v}
		}
		seg := AppendGrouped(nil, recs)
		if int64(len(seg)) != GroupedLen(recs) {
			return false
		}
		var c GroupCursor
		c.Reset(seg)
		var back []Rec
		for {
			r, ok, err := c.Next()
			if err != nil {
				return false
			}
			if !ok {
				return recsEqual(back, recs)
			}
			back = append(back, r)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupedSortSpillRunIsUnder45Percent is the layout's attribution: a
// sort_spill-like run — one map task's 13 000 WordCount words, Zipf 1.3
// over the generator's thousand, the quarter of them one partition gets,
// sorted, each with an IntWritable 1 — is at most 45 % of its per-record
// raw bytes, resident and spilled alike.
func TestGroupedSortSpillRunIsUnder45Percent(t *testing.T) {
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.3, 1.0, 999)
	one, err := wio.Marshal(types.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	var recs []Rec
	for i := 0; i < 13000; i++ {
		if w := zipf.Uint64(); w%4 == 1 {
			k, err := wio.Marshal(types.NewText(fmt.Sprintf("word%04d", w)))
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, Rec{K: k, V: one})
		}
	}
	SortRecs(recs, types.TextRawComparator{})
	perRecord := rawLen(recs)
	enc, err := EncodeGroupedRun(recs, CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	groups := 0
	for i := 0; i < len(recs); i = groupEnd(recs, i) {
		groups++
	}
	for what, n := range map[string]int64{"resident": GroupedLen(recs), "spilled raw": enc.Raw} {
		share := float64(n) / float64(perRecord)
		t.Logf("%s: %d bytes for %d records in %d groups, %.1f %% of %d per-record bytes", what, n, len(recs), groups, 100*share, perRecord)
		if share > 0.45 {
			t.Errorf("%s: the grouped run is %.1f %% of its per-record bytes, ceiling 45 %%", what, 100*share)
		}
	}
}

// groupedSeeds are FuzzStreamNext's grouped segments: a one-value group, a
// group spanning three blocks and one that runs past its block.
func groupedSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		one, err := EncodeGroupedRun([]Rec{{K: []byte("k"), V: []byte("v")}}, codec)
		if err != nil {
			tb.Fatal(err)
		}
		GroupedBlockBytes.Store(8)
		three, err := EncodeGroupedRun([]Rec{
			{K: []byte("key"), V: []byte("value-01")},
			{K: []byte("key"), V: []byte("value-02")},
			{K: []byte("key"), V: []byte("value-03")},
			{K: []byte("next"), V: nil},
		}, codec)
		GroupedBlockBytes.Store(0)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, one.Data, three.Data)
	}
	runsPast := append(append([]byte{}, segMagic[:]...), layoutGrouped, byte(CodecNone), byte(CodecNone), 4, 4, 1, 'k', 2, 0)
	return append(seeds, runsPast)
}

// TestGroupedSeedsDecode: the grouped seeds are what they say they are.
func TestGroupedSeedsDecode(t *testing.T) {
	seeds := groupedSeeds(t)
	for i, seed := range seeds {
		path := filepath.Join(t.TempDir(), "seed")
		if err := os.WriteFile(path, seed, 0o644); err != nil {
			t.Fatal(err)
		}
		err := drainErr(path, Segment{Len: int64(len(seed))})
		if last := i == len(seeds)-1; (err != nil) != last || last && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("seed %d: %v", i, err)
		}
	}
}
