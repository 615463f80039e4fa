package formats_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"m3r/internal/dfs"
	"m3r/internal/formats"
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
	rr, err := formats.NewLineRecordReader(fs, &formats.FileSplit{Path: path, Start: start, Len: end - start})
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	k, v := rr.CreateKey(), rr.CreateValue()
	var out []lineRec
	for {
		ok, err := rr.Next(k, v)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, lineRec{k.(*types.LongWritable).Get(), v.(*types.Text).String()})
	}
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
