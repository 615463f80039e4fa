package formats

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"m3r/internal/dfs"
	"m3r/internal/sim"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// byteScanner is the reference readers' source: the file through a
// bufio.Reader, one byte offset kept beside it.
type byteScanner struct {
	br  *bufio.Reader
	pos int64
}

func (c *byteScanner) readFull(p []byte) error {
	n, err := io.ReadFull(c.br, p)
	c.pos += int64(n)
	return err
}

func (c *byteScanner) readByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.pos++
	}
	return b, err
}

// refScanToSync is the scanner scanToSync replaced, kept as its reference:
// one ReadByte at a time through a syncSize ring, comparing at every byte.
func refScanToSync(cr *byteScanner, sync []byte) error {
	var window [syncSize]byte
	if err := cr.readFull(window[:]); err != nil {
		return io.EOF
	}
	idx := 0 // window is a ring buffer; idx is its logical start
	for {
		match := true
		for i := 0; i < syncSize && match; i++ {
			match = window[(idx+i)%syncSize] == sync[i]
		}
		if match {
			return nil
		}
		b, err := cr.readByte()
		if err != nil {
			return io.EOF
		}
		window[idx] = b
		idx = (idx + 1) % syncSize
	}
}

// refNext is the record loop read field by field from cr: the next record
// of a split that ends at end, as an (IntWritable, BytesWritable) pair.
func refNext(cr *byteScanner, sync []byte, end int64) (ok bool, key int32, value []byte, err error) {
	var b [4]byte
	for {
		if err := cr.readFull(b[:]); err != nil {
			return false, 0, nil, nil
		}
		recLen := int32(binary.BigEndian.Uint32(b[:]))
		if recLen == syncEscape {
			markerStart := cr.pos
			marker := make([]byte, syncSize)
			if err := cr.readFull(marker); err != nil || !bytes.Equal(marker, sync) {
				return false, 0, nil, fmt.Errorf("bad marker at %d", markerStart)
			}
			if markerStart >= end {
				return false, 0, nil, nil
			}
			continue
		}
		if err := cr.readFull(b[:]); err != nil {
			return false, 0, nil, err
		}
		rec := make([]byte, recLen)
		if err := cr.readFull(rec); err != nil {
			return false, 0, nil, err
		}
		keyLen := binary.BigEndian.Uint32(b[:])
		k, v := new(types.IntWritable), new(types.BytesWritable)
		if err := wio.Unmarshal(rec[:keyLen], k); err != nil {
			return false, 0, nil, err
		}
		if err := wio.Unmarshal(rec[keyLen:], v); err != nil {
			return false, 0, nil, err
		}
		return true, k.Get(), v.B, nil
	}
}

// TestScanToSyncMatchesByteScanner enters a multi-block SequenceFile at
// every offset — inside a marker, one byte before one, past the last one,
// past the end — and requires the position after the scan, the first record
// and the position after it to equal the byte-at-a-time scanner's. The file
// holds near-markers (15 of the 16 bytes, from either end) in its payloads
// and one record longer than a block, so refills with and without a
// carried partial match both occur at every alignment.
func TestScanToSyncMatchesByteScanner(t *testing.T) {
	// A read stops at a block boundary, so a fill of the window ends at a
	// block's edge, which falls differently for every start.
	const blockSize = 5000
	fs, err := dfs.NewHDFS(dfs.HDFSOptions{
		Root:      t.TempDir(),
		Hosts:     []string{"node0", "node1"},
		BlockSize: blockSize,
		Stats:     sim.NewStats(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The marker is random, and three payloads below end in its first 15
	// bytes: if its last byte is what follows them — that prefix's own first
	// byte, a record length's 0x00 or a sync escape's 0xff — the file holds
	// a marker no writer put there and no reader could be right about it.
	// One file in eighty; such a file is abandoned for another.
	var (
		sw     *SeqWriter
		marker []byte
		path   string
	)
	for attempt := 0; ; attempt++ {
		path = fmt.Sprintf("/s%d", attempt)
		wc, err := fs.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if sw, err = NewSeqWriter(wc, types.IntName, types.BytesName); err != nil {
			t.Fatal(err)
		}
		marker = sw.sync[:]
		if last := marker[syncSize-1]; last != marker[0] && last != 0x00 && last != 0xff {
			break
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	payloads := [][]byte{
		append(append([]byte(nil), marker[:syncSize-1]...), marker[syncSize-1]^0xff),            // all but the last byte
		append([]byte{marker[0] ^ 0xff}, marker[1:]...),                                         // all but the first
		append(append([]byte(nil), marker[:syncSize-1]...), marker[:syncSize-1]...),             // a false start, twice
		bytes.Repeat([]byte{marker[0]}, 40),                                                     // a run of first bytes
		append(bytes.Repeat([]byte{0x5a}, 2*4096+17), marker[:syncSize-1]...),                   // several windows, no marker
		append(append(bytes.Repeat([]byte{1}, 4096-20), marker[:8]...), marker[:syncSize-1]...), // a prefix of a prefix
	}
	for i := 0; i < 14; i++ {
		p := payloads[i%len(payloads)]
		if i%7 == 3 {
			p = bytes.Repeat([]byte{byte(i)}, 700+13*i) // long enough that the writer emits markers
		}
		if err := sw.Append(types.NewInt(int32(i)), types.NewBytes(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size < 3*blockSize {
		t.Fatalf("file is %d bytes, want more than three blocks", st.Size)
	}

	hdr, err := NewSeqReader(fs, path, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := hdr.pos()
	hdr.Close()

	type step struct {
		pos   int64
		ok    bool
		key   int32
		value []byte
	}
	next := func(r *SeqReader) step {
		k, v := new(types.IntWritable), new(types.BytesWritable)
		ok, err := r.Next(k, v)
		if err != nil {
			t.Fatalf("start %d: %v", r.start, err)
		}
		return step{pos: r.pos(), ok: ok, key: k.Get(), value: append([]byte(nil), v.B...)}
	}
	found := 0
	// A reader scans only when it starts past the header.
	for start := headerEnd + 1; start <= st.Size+2; start++ {
		got, err := NewSeqReader(fs, path, start, -1)
		if err != nil {
			t.Fatalf("start %d: %v", start, err)
		}
		// The reference: the file read byte by byte from start, positioned
		// by refScanToSync.
		f, err := fs.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(start, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		ref := &byteScanner{br: bufio.NewReader(f), pos: start}
		refDone := refScanToSync(ref, marker) == io.EOF
		if !refDone && ref.pos-syncSize >= got.end {
			refDone = true
		}
		if got.pos() != ref.pos || got.done != refDone {
			t.Fatalf("start %d: scan ended at %d (done %v), byte scanner at %d (done %v)",
				start, got.pos(), got.done, ref.pos, refDone)
		}
		if !refDone {
			found++
		}
		g := next(got)
		var w step
		if !refDone {
			w.ok, w.key, w.value, err = refNext(ref, marker, got.end)
			if err != nil {
				t.Fatalf("start %d: reference: %v", start, err)
			}
		}
		w.pos = ref.pos
		if g.pos != w.pos || g.ok != w.ok || g.key != w.key || !bytes.Equal(g.value, w.value) {
			t.Fatalf("start %d: first record %d (%d bytes, ok %v) ending at %d, byte scanner's %d (%d bytes, ok %v) ending at %d",
				start, g.key, len(g.value), g.ok, g.pos, w.key, len(w.value), w.ok, w.pos)
		}
		got.Close()
		f.Close()
	}
	if found == 0 || found == int(st.Size+2-headerEnd) {
		t.Fatalf("%d of %d start offsets found a marker: want some with and some without", found, st.Size+2-headerEnd)
	}
}
