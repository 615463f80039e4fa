package formats_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"m3r/internal/dfs"
	"m3r/internal/formats"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/testenv"
	"m3r/internal/types"
)

// lineRec is one record of a LineRecordReader: a line's offset and text.
type lineRec struct {
	off  int64
	text string
}

// referenceLines is what the splits of content yield between them: every
// line, keyed by its start offset, without "\n" or "\r\n".
func referenceLines(content string) []lineRec {
	var out []lineRec
	for off := 0; off < len(content); {
		line := content[off:]
		n := len(line)
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			n = i + 1
			line = strings.TrimSuffix(line[:i], "\r")
		}
		out = append(out, lineRec{int64(off), line})
		off += n
	}
	return out
}

// readSplit reads every record of one split with one key and value holder,
// as the engines' map loops do.
func readSplit(t *testing.T, fs dfs.FileSystem, path string, start, end int64) []lineRec {
	t.Helper()
	recs, _ := readLines(t, fs, path, start, end, false)
	return recs
}

// readLines reads every record of one split: in copy mode with one key and
// value holder, as the engines' map loops do; owned (ReadOwned), with fresh
// holders for every record, as the cache's cold fill does, returning the
// values it was handed beside the records.
func readLines(t *testing.T, fs dfs.FileSystem, path string, start, end int64, owned bool) ([]lineRec, []*types.Text) {
	t.Helper()
	rr, err := formats.NewLineRecordReader(fs, &formats.FileSplit{Path: path, Start: start, Len: end - start})
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	if owned {
		rr.ReadOwned()
	}
	k, v := rr.CreateKey(), rr.CreateValue()
	var out []lineRec
	var vals []*types.Text
	for {
		if owned {
			k, v = rr.CreateKey(), rr.CreateValue()
		}
		ok, err := rr.Next(k, v)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out, vals
		}
		text := v.(*types.Text)
		if owned {
			if cap(text.B) != len(text.B) {
				t.Fatalf("owned line at %d: %d bytes of capacity %d", k.(*types.LongWritable).Get(), len(text.B), cap(text.B))
			}
			vals = append(vals, text)
		}
		out = append(out, lineRec{k.(*types.LongWritable).Get(), text.String()})
	}
}

// textsOf is the lines vals hold now.
func textsOf(vals []*types.Text) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.String()
	}
	return out
}

// TestLineRecordReaderRecords: offsets and lines, split by split, for line
// endings, a last line without a newline, lines longer than the reader's
// buffer and splits that start mid-line, against a reference split of the
// whole content. A split owns the lines that start inside it.
func TestLineRecordReaderRecords(t *testing.T) {
	long := strings.Repeat("L", 10000) // longer than bufio's 4 KiB
	cases := []struct {
		name    string
		content string
	}{
		{"crlf", "one\r\ntwo\r\n\r\nfour\r\n"},
		{"mixed endings", "a\r\nb\nc\r\n\nd\re\n"},
		{"no final newline", "first\nsecond\nlast"},
		{"final carriage return kept", "x\ny\r"},
		{"long lines", long + "\nshort\n" + long + "\r\n" + long},
		{"only a long line", long + long},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, fs, cleanup := newJobFS(t, 4096)
			defer cleanup()
			if err := dfs.WriteFile(fs, "/in", []byte(c.content)); err != nil {
				t.Fatal(err)
			}
			want := referenceLines(c.content)
			size := int64(len(c.content))
			// One split, and cuts at every tenth of the file, most of them
			// mid-line, some inside the long lines.
			for _, parts := range []int64{1, 3, 10} {
				var got []lineRec
				for i := int64(0); i < parts; i++ {
					start, end := size*i/parts, size*(i+1)/parts
					for _, r := range readSplit(t, fs, "/in", start, end) {
						if r.off < start || r.off >= end {
							t.Fatalf("%d parts: split [%d, %d) read the line at %d", parts, start, end, r.off)
						}
						got = append(got, r)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%d parts: got %q\nwant %q", parts, got, want)
				}
			}
		})
	}
}

// TestLineRecordReaderAllocs: with reused holders a line costs no
// allocation, once the value holder has grown to the longest line.
func TestLineRecordReaderAllocs(t *testing.T) {
	_, fs, cleanup := newJobFS(t, 1<<20)
	defer cleanup()
	var content bytes.Buffer
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&content, "line %06d of the allocation row's input\n", i)
	}
	if err := dfs.WriteFile(fs, "/in", content.Bytes()); err != nil {
		t.Fatal(err)
	}
	rr, err := formats.NewLineRecordReader(fs, &formats.FileSplit{Path: "/in", Len: int64(content.Len())})
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	k, v := rr.CreateKey(), rr.CreateValue()
	next := func() {
		if ok, err := rr.Next(k, v); !ok || err != nil {
			t.Fatalf("Next = %v, %v", ok, err)
		}
	}
	if n := testing.AllocsPerRun(2000, next); n != 0 {
		t.Errorf("%.2f allocations a line, want 0", n)
	}
}

// lineFiles are the files the every-offset and fuzz checks read: those of
// TestLineRecordReaderRecords, a line longer than the reader's 128 KiB copy
// window between two short ones, and a file of newlines only.
func lineFiles() []struct{ name, content string } {
	long := strings.Repeat("L", 10000)
	return []struct{ name, content string }{
		{"crlf", "one\r\ntwo\r\n\r\nfour\r\n"},
		{"mixed endings", "a\r\nb\nc\r\n\nd\re\n"},
		{"no final newline", "first\nsecond\nlast"},
		{"final carriage return kept", "x\ny\r"},
		{"long lines", long + "\nshort\n" + long + "\r\n" + long},
		{"only a long line", long + long},
		{"a line past the window", "head\n" + strings.Repeat("W", 300<<10) + "\r\ntail\n"},
		{"newlines only", strings.Repeat("\n", 1000)},
	}
}

// cutOffsets are the offsets content is cut at: every one for a file of up
// to 16 KiB; past that, every one within 8 bytes of a line's end, of the
// file's ends and of each 64 KiB multiple, and every 4093rd, so that a cut
// lands on both sides of every line and window edge without reading a long
// file once per byte.
func cutOffsets(content string) []int64 {
	n := len(content)
	near := func(k, edge int) bool { return k-edge <= 8 && edge-k <= 8 }
	var offs []int64
	for k := 0; k <= n; k++ {
		keep := n <= 16<<10 || near(k, 0) || near(k, n) || near(k%(64<<10), 0) || near(k%(64<<10), 64<<10) || k%4093 == 0
		for d := -8; !keep && d <= 8; d++ {
			keep = k+d > 0 && k+d <= n && content[k+d-1] == '\n'
		}
		if keep {
			offs = append(offs, int64(k))
		}
	}
	return offs
}

// readCuts reads path of size bytes as the splits cut at offs, in order,
// in copy or owned mode (readLines), and checks that each split's lines
// start inside it.
func readCuts(t *testing.T, fs dfs.FileSystem, path string, size int64, owned bool, offs ...int64) ([]lineRec, []*types.Text) {
	t.Helper()
	var got []lineRec
	var vals []*types.Text
	bounds := append(append([]int64{0}, offs...), size)
	for i := 0; i+1 < len(bounds); i++ {
		start, end := bounds[i], bounds[i+1]
		recs, vs := readLines(t, fs, path, start, end, owned)
		for _, r := range recs {
			if r.off < start || r.off >= end {
				t.Fatalf("cuts %v: split [%d, %d) read the line at %d", offs, start, end, r.off)
			}
		}
		got, vals = append(got, recs...), append(vals, vs...)
	}
	return got, vals
}

// TestLineRecordReaderEveryOffset: each of lineFiles cut in two at every
// offset of cutOffsets, and in three at random offsets, reads back as the
// reference split of the whole, over 16 KiB blocks, in owned mode and in
// copy mode: the same lines at the same offsets. Under
// spill.PoisonRecycledBlocks, the owned values still read as their lines
// after their readers closed and the copy-mode read recycled the pooled
// windows.
func TestLineRecordReaderEveryOffset(t *testing.T) {
	defer spill.PoisonRecycledBlocks.Store(spill.PoisonRecycledBlocks.Swap(true))
	rng := rand.New(rand.NewSource(52))
	for _, c := range lineFiles() {
		t.Run(c.name, func(t *testing.T) {
			_, fs, cleanup := newJobFS(t, 16<<10)
			defer cleanup()
			if err := dfs.WriteFile(fs, "/in", []byte(c.content)); err != nil {
				t.Fatal(err)
			}
			want := referenceLines(c.content)
			wantTexts := make([]string, len(want))
			for i, w := range want {
				wantTexts[i] = w.text
			}
			size := int64(len(c.content))
			check := func(cuts ...int64) {
				t.Helper()
				owned, vals := readCuts(t, fs, "/in", size, true, cuts...)
				if !slices.Equal(owned, want) {
					t.Fatalf("owned, cuts %v: got %.200q\nwant %.200q", cuts, owned, want)
				}
				if got, _ := readCuts(t, fs, "/in", size, false, cuts...); !slices.Equal(got, want) {
					t.Fatalf("copy, cuts %v: got %.200q\nwant %.200q", cuts, got, want)
				}
				if got := textsOf(vals); !slices.Equal(got, wantTexts) {
					t.Fatalf("owned, cuts %v: after the readers closed and the windows recycled, values %.200q\nwant %.200q", cuts, got, wantTexts)
				}
			}
			for _, k := range cutOffsets(c.content) {
				check(k)
			}
			for range 100 {
				a, b := rng.Int63n(size+1), rng.Int63n(size+1)
				check(min(a, b), max(a, b))
			}
		})
	}
}

// FuzzLineRecordReader reads the file spec spells — its bytes, with each
// 0xff spelling 48 KiB of 'x', so three in a row make a line longer than
// the reader's 128 KiB copy window — as three splits cut at a and b, over
// 5000-byte blocks, under spill.PoisonRecycledBlocks, with fresh holders
// for every record, in copy mode and in owned mode. In both, every line
// comes back once, at its offset, unchanged, and every value still reads as
// written after its reader is closed and another has read the file through
// the recycled windows.
func FuzzLineRecordReader(f *testing.F) {
	f.Add([]byte("one\r\ntwo\n\nfour"), uint32(3), uint32(9))
	f.Add([]byte("\n\n\n\r\n\r"), uint32(1), uint32(4))
	f.Add([]byte("a\xff\xff\xffb\nc\r\n\xff\n"), uint32(70000), uint32(147460))
	fs, err := dfs.NewHDFS(dfs.HDFSOptions{Root: f.TempDir(), BlockSize: 5000, Stats: sim.NewStats()})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, spec []byte, a, b uint32) {
		was := spill.PoisonRecycledBlocks.Swap(true)
		defer spill.PoisonRecycledBlocks.Store(was)
		var content []byte
		for _, c := range spec {
			if len(content) >= 1<<20 {
				break
			}
			if c == 0xff {
				content = append(content, bytes.Repeat([]byte{'x'}, 48<<10)...)
			} else {
				content = append(content, c)
			}
		}
		if err := dfs.WriteFile(fs, "/f", content); err != nil {
			t.Fatal(err)
		}
		defer fs.Delete("/f", false)
		size := int64(len(content))
		cuts := []int64{0, int64(a) % (size + 1), int64(b) % (size + 1), size}
		cuts[1], cuts[2] = min(cuts[1], cuts[2]), max(cuts[1], cuts[2])
		var offs []int64
		var vals []*types.Text
		for i := 0; i < 6; i++ {
			owned, i := i >= 3, i%3
			rr, err := formats.NewLineRecordReader(fs, &formats.FileSplit{Path: "/f", Start: cuts[i], Len: cuts[i+1] - cuts[i]})
			if err != nil {
				t.Fatal(err)
			}
			if owned {
				rr.ReadOwned()
			}
			for {
				k, v := rr.CreateKey(), rr.CreateValue()
				ok, err := rr.Next(k, v)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if off := k.(*types.LongWritable).Get(); off < cuts[i] || off >= cuts[i+1] {
					t.Fatalf("cuts %v: split %d read the line at %d", cuts, i, off)
				}
				offs = append(offs, k.(*types.LongWritable).Get())
				vals = append(vals, v.(*types.Text))
			}
			if err := rr.Close(); err != nil {
				t.Fatal(err)
			}
		}
		check := func(when string) {
			want := referenceLines(string(content))
			want = append(want, want...) // copy mode's lines, then owned mode's
			if len(vals) != len(want) {
				t.Fatalf("cuts %v: %d lines, want %d", cuts, len(vals), len(want))
			}
			for i, w := range want {
				if offs[i] != w.off || vals[i].String() != w.text {
					t.Fatalf("cuts %v, %s, owned %v: line %d at %d is %.80q, want %.80q at %d", cuts, when, 2*i >= len(want), i%(len(want)/2), offs[i], vals[i].String(), w.text, w.off)
				}
			}
		}
		check("as read")
		readSplit(t, fs, "/f", 0, size)
		check("after another reader")
	})
}

// spanFS records the lowest and highest file offsets the reads of its
// files touch.
type spanFS struct {
	dfs.FileSystem
	lo, hi int64
}

func (s *spanFS) Open(path string) (dfs.File, error) {
	f, err := s.FileSystem.Open(path)
	if err != nil {
		return nil, err
	}
	return &spanFile{File: f, fs: s}, nil
}

type spanFile struct {
	dfs.File
	fs  *spanFS
	pos int64
}

func (f *spanFile) Seek(off int64, whence int) (int64, error) {
	pos, err := f.File.Seek(off, whence)
	f.pos = pos
	return pos, err
}

func (f *spanFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	if n > 0 {
		f.fs.lo, f.fs.hi = min(f.fs.lo, f.pos), max(f.fs.hi, f.pos+int64(n))
	}
	f.pos += int64(n)
	return n, err
}

// TestLineRecordReaderChargesItsSplit: each split of a text file of 16 KiB
// blocks — short lines, and lines of 20 and 150 KiB that splits start and
// end inside — reads from the byte ahead of its start, nothing before it,
// through the line that crosses its end and at most a read's reach past
// that, each byte once, and is charged for those bytes, as bytes read and
// as disk time.
func TestLineRecordReaderChargesItsSplit(t *testing.T) {
	var b strings.Builder
	for i := 0; b.Len() < 400<<10; i++ {
		switch i % 97 {
		case 13:
			b.WriteString(strings.Repeat("m", 20<<10))
		case 50:
			b.WriteString(strings.Repeat("g", 150<<10))
		default:
			fmt.Fprintf(&b, "line %d", i)
		}
		b.WriteByte('\n')
	}
	content := b.String()
	size := int64(len(content))
	stats := sim.NewStats()
	hdfs, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir(), BlockSize: 16 << 10, Stats: stats, Cost: &sim.CostModel{DiskBytesPerSec: 1e9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteFile(hdfs, "/in", []byte(content)); err != nil {
		t.Fatal(err)
	}
	fs := &spanFS{FileSystem: hdfs}
	const pastEnd = 4 << 10
	var got []lineRec
	cuts := []int64{0, 1, 1000, 30000, 64 << 10, 100000, 140000, 200000, 300001, size - 10, size}
	for i := 0; i+1 < len(cuts); i++ {
		start, end := cuts[i], cuts[i+1]
		// The split needs the bytes from the one ahead of its start to the
		// end of the line holding its last byte.
		first, need := max(start-1, 0), size
		if nl := strings.IndexByte(content[end-1:], '\n'); nl >= 0 {
			need = end + int64(nl)
		}
		read0, disk0 := stats.Get(sim.HDFSReadBytes), stats.Get(sim.DiskDelayNs)
		fs.lo, fs.hi = size, 0
		got = append(got, readSplit(t, fs, "/in", start, end)...)
		read, disk := stats.Get(sim.HDFSReadBytes)-read0, stats.Get(sim.DiskDelayNs)-disk0
		if fs.lo != first || fs.hi < need || fs.hi > min(need+pastEnd, size) {
			t.Errorf("split [%d, %d) read [%d, %d); want from %d to between %d and %d", start, end, fs.lo, fs.hi, first, need, min(need+pastEnd, size))
		}
		if read != fs.hi-fs.lo || disk != read {
			t.Errorf("split [%d, %d) read [%d, %d) and was charged %d bytes read, %d of disk", start, end, fs.lo, fs.hi, read, disk)
		}
	}
	if !slices.Equal(got, referenceLines(content)) {
		t.Error("the splits' lines differ from the reference split")
	}
}

// TestLineRecordReaderLongLineAllocs: a 1 MiB line, read with reused
// holders, costs at most ⌈log₂(1 MiB / 128 KiB)⌉ + 2 windows beyond what a
// one-byte line costs: a window that a line outgrows is replaced by one
// twice its size. In owned mode a 1 MiB line that crosses the split's end
// costs at most ⌈log₂(1 MiB / 20 B)⌉ + 2 windows beyond a one-byte one, 20
// bytes being the room an owned window keeps past the split. The collector is off, as it would empty the window pool,
// and the race detector drops a share of what goes back to it. The memory
// limit bounds what a reader that regrows its window without doubling
// could take with the collector off: the collector runs at the limit.
func TestLineRecordReaderLongLineAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector drops a share of the pooled windows")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(512 << 20))
	_, fs, cleanup := newJobFS(t, 4<<20)
	defer cleanup()
	perLine := func(n int) float64 {
		path := fmt.Sprintf("/line%d", n)
		if err := dfs.WriteFile(fs, path, []byte(strings.Repeat("x", n)+"\n")); err != nil {
			t.Fatal(err)
		}
		split := &formats.FileSplit{Path: path, Len: int64(n + 1)}
		k, v := new(types.LongWritable), new(types.Text)
		return testing.AllocsPerRun(20, func() {
			rr, err := formats.NewLineRecordReader(fs, split)
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := rr.Next(k, v); !ok || err != nil || v.Len() != n {
				t.Fatalf("Next = %v, %v, a line of %d bytes; want %d", ok, err, v.Len(), n)
			}
			if err := rr.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := perLine(1), perLine(1<<20)
	t.Logf("%.0f allocations for a 1-byte line, %.0f for a 1 MiB line", short, long)
	if windows := long - short; windows > 5 {
		t.Errorf("%.0f windows for a 1 MiB line, want at most 5", windows)
	}

	// Owned, the split is the first 3 bytes and its second line is n bytes
	// long: the fresh window, sized to the split, grows to the line's end,
	// at least doubling each time.
	ownedTail := func(n int) float64 {
		path := fmt.Sprintf("/tail%d", n)
		if err := dfs.WriteFile(fs, path, []byte("a\n"+strings.Repeat("x", n)+"\n")); err != nil {
			t.Fatal(err)
		}
		split := &formats.FileSplit{Path: path, Len: 3}
		return testing.AllocsPerRun(20, func() {
			rr, err := formats.NewLineRecordReader(fs, split)
			if err != nil {
				t.Fatal(err)
			}
			rr.ReadOwned()
			for _, want := range []int{1, n} {
				k, v := new(types.LongWritable), new(types.Text)
				if ok, err := rr.Next(k, v); !ok || err != nil || v.Len() != want {
					t.Fatalf("owned Next = %v, %v, a line of %d bytes; want %d", ok, err, v.Len(), want)
				}
			}
			if err := rr.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long = ownedTail(1), ownedTail(1<<20)
	t.Logf("owned: %.0f allocations for a 1-byte line past the split, %.0f for a 1 MiB one", short, long)
	if windows := long - short; windows > 18 {
		t.Errorf("owned: %.0f windows for a 1 MiB line past the split, want at most ⌈log₂(1 MiB / 20 B)⌉ + 2 = 18", windows)
	}
}
