package formats

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"unsafe"

	"m3r/internal/dfs"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// seqFS is an HDFS of blockSize-byte blocks under a test's temp dir; a read
// stops at a block's end, so small blocks cut the window's fills short.
func seqFS(tb testing.TB, blockSize int64) *dfs.HDFS {
	tb.Helper()
	fs, err := dfs.NewHDFS(dfs.HDFSOptions{
		Root:      tb.TempDir(),
		Hosts:     []string{"node0"},
		BlockSize: blockSize,
		Stats:     sim.NewStats(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// body is record i's value bytes: n bytes that differ from every other
// record's.
func body(i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(i*31 + j*7 + j>>8)
	}
	return b
}

// writeBodies writes one (IntWritable i, BytesWritable) record per size,
// with sync markers, and returns the values.
func writeBodies(tb testing.TB, fs dfs.FileSystem, path string, sizes []int) [][]byte {
	tb.Helper()
	wc, err := fs.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	sw, err := NewSeqWriter(wc, types.IntName, types.BytesName)
	if err != nil {
		tb.Fatal(err)
	}
	vals := make([][]byte, len(sizes))
	for i, n := range sizes {
		vals[i] = body(i, n)
		if err := sw.Append(types.NewInt(int32(i)), types.NewBytes(vals[i])); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
	return vals
}

// readSplits reads the file of size bytes (-1: to its end) as the splits
// cut at offs, in order, in copy or owned mode, with fresh holders for
// every record, and returns the records' keys and values.
func readSplits(fs dfs.FileSystem, path string, size int64, offs []int64, owned bool) ([]int32, [][]byte, error) {
	var keys []int32
	var vals [][]byte
	bounds := append(append([]int64{0}, offs...), size)
	for i := 0; i+1 < len(bounds); i++ {
		r, err := NewSeqReader(fs, path, bounds[i], bounds[i+1]-bounds[i])
		if err != nil {
			return nil, nil, err
		}
		if owned {
			r.ReadOwned()
		}
		for {
			k, v := new(types.IntWritable), new(types.BytesWritable)
			ok, err := r.Next(k, v)
			if err != nil {
				r.Close()
				return nil, nil, fmt.Errorf("split [%d, %d): %w", bounds[i], bounds[i+1], err)
			}
			if !ok {
				break
			}
			keys = append(keys, k.Get())
			vals = append(vals, v.B)
		}
		if err := r.Close(); err != nil {
			return nil, nil, err
		}
	}
	return keys, vals, nil
}

// checkRecords requires keys 0, 1, 2, … with want's values.
func checkRecords(keys []int32, vals, want [][]byte) error {
	if len(keys) != len(want) {
		return fmt.Errorf("%d records, want %d", len(keys), len(want))
	}
	for i := range keys {
		if keys[i] != int32(i) {
			return fmt.Errorf("record %d has key %d", i, keys[i])
		}
		if !bytes.Equal(vals[i], want[i]) {
			return fmt.Errorf("record %d: value of %d bytes differs from the %d written", i, len(vals[i]), len(want[i]))
		}
	}
	return nil
}

// within reports whether b's bytes lie inside w's backing array.
func within(b, w []byte) bool {
	if len(b) == 0 || cap(w) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(w)))
	return p >= lo && p < lo+uintptr(cap(w))
}

// poisoned sets spill.PoisonRecycledBlocks for the test.
func poisoned(tb testing.TB) {
	was := spill.PoisonRecycledBlocks.Swap(true)
	tb.Cleanup(func() { spill.PoisonRecycledBlocks.Store(was) })
}

// edgeSizes holds the value sizes the window rules turn on: empty values,
// the owned floor's edge, a 64 KiB value, one larger than the copy-mode
// window, and enough 2 KiB values that owned windows fill and records are
// cut by fills in both modes.
func edgeSizes() []int {
	var sizes []int
	for i := 0; i < 1400; i++ {
		switch i % 100 {
		case 3:
			sizes = append(sizes, 0)
		case 17:
			sizes = append(sizes, wio.OwnedFloor-1)
		case 18:
			sizes = append(sizes, wio.OwnedFloor)
		case 41:
			sizes = append(sizes, 64<<10)
		case 77:
			sizes = append(sizes, copyWindow+5000)
		default:
			sizes = append(sizes, 2048+i%13)
		}
	}
	return sizes
}

// TestSeqReaderModesAgree: copy mode, owned mode and ReadSeqFileAll read
// every record once, in order, unchanged, however the file is split — with
// values empty, at the owned floor's edge, of 64 KiB and larger than the
// copy-mode window, over 1 MiB blocks and over blocks no multiple of any
// window — and owned values stay as read after later fills and Close.
func TestSeqReaderModesAgree(t *testing.T) {
	poisoned(t)
	sizes := edgeSizes()
	for _, blockSize := range []int64{1 << 20, 70001} {
		t.Run(fmt.Sprint(blockSize), func(t *testing.T) {
			fs := seqFS(t, blockSize)
			want := writeBodies(t, fs, "/s", sizes)
			st, err := fs.Stat("/s")
			if err != nil {
				t.Fatal(err)
			}
			if st.Size < 2*ownedWindowMax {
				t.Fatalf("file is %d bytes: too short to fill two owned windows", st.Size)
			}
			all, err := ReadSeqFileAll(fs, "/s")
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]int32, len(all))
			vals := make([][]byte, len(all))
			for i, p := range all {
				keys[i], vals[i] = p.Key.(*types.IntWritable).Get(), p.Value.(*types.BytesWritable).B
			}
			if err := checkRecords(keys, vals, want); err != nil {
				t.Fatalf("ReadSeqFileAll: %v", err)
			}
			for _, n := range []int64{1, 2, 3, 7, 16, 61} {
				var offs []int64
				for i := int64(1); i < n; i++ {
					offs = append(offs, st.Size*i/n)
				}
				for _, owned := range []bool{false, true} {
					keys, vals, err := readSplits(fs, "/s", st.Size, offs, owned)
					if err == nil {
						err = checkRecords(keys, vals, want)
					}
					if err != nil {
						t.Errorf("%d splits, owned %v: %v", n, owned, err)
					}
				}
			}
		})
	}
}

// TestSeqReaderSplitsInTheHeader: a file cut in two at any offset up to
// just past its header reads every record once, in both modes. The header
// ends with the file's first sync marker, so the records behind it belong
// to the split that holds that marker: the second one when the cut lies
// before the marker, else the first.
func TestSeqReaderSplitsInTheHeader(t *testing.T) {
	fs := seqFS(t, 1<<20)
	sizes := make([]int, 40)
	for i := range sizes {
		sizes[i] = 300 + i
	}
	want := writeBodies(t, fs, "/s", sizes)
	st, err := fs.Stat("/s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewSeqReader(fs, "/s", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	hdr := r.pos()
	r.Close()
	for cut := int64(0); cut <= hdr+20; cut++ {
		for _, owned := range []bool{false, true} {
			keys, vals, err := readSplits(fs, "/s", st.Size, []int64{cut}, owned)
			if err == nil {
				err = checkRecords(keys, vals, want)
			}
			if err != nil {
				t.Errorf("cut at %d of a %d-byte header, owned %v: %v", cut, hdr, owned, err)
			}
		}
	}
}

// TestSeqReaderOwnedViews: in owned mode a value of wio.OwnedFloor bytes or
// more is a view of the window it was read into, a shorter one is not, and
// every view reads as written after the fills behind it, after Close, and
// after other readers have taken and poisoned pooled windows. In copy mode
// no value is a view.
func TestSeqReaderOwnedViews(t *testing.T) {
	poisoned(t)
	fs := seqFS(t, 1<<20)
	sizes := edgeSizes()
	want := writeBodies(t, fs, "/s", sizes)
	for _, owned := range []bool{false, true} {
		r, err := NewSeqReader(fs, "/s", 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if owned {
			r.ReadOwned()
		}
		var keys []int32
		var vals [][]byte
		for {
			k, v := new(types.IntWritable), new(types.BytesWritable)
			ok, err := r.Next(k, v)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			view := within(v.B, r.win)
			if wantView := owned && len(v.B) >= wio.OwnedFloor; view != wantView {
				t.Fatalf("owned %v: a %d-byte value is a view of the window: %v, want %v", owned, len(v.B), view, wantView)
			}
			if view && cap(v.B) != len(v.B) {
				t.Fatalf("a view's capacity %d runs past its %d bytes", cap(v.B), len(v.B))
			}
			keys, vals = append(keys, k.Get()), append(vals, v.B)
		}
		r.Close()
		// Other readers take the pooled windows, fill them and give them
		// back poisoned.
		for range 3 {
			if _, _, err := readSplits(fs, "/s", -1, nil, false); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadSeqFileAll(fs, "/s"); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkRecords(keys, vals, want); err != nil {
			t.Errorf("owned %v, values kept past their reader: %v", owned, err)
		}
	}
}

// TestSeqReaderCopyValuesOutliveNext: in copy mode, values read into fresh
// holders and kept past later Nexts, fills and Close stay what was read
// under poison, and a stream of records shorter than the window is read
// through the pooled window alone: the reader makes no window of its own.
func TestSeqReaderCopyValuesOutliveNext(t *testing.T) {
	poisoned(t)
	fs := seqFS(t, 1<<20)
	sizes := make([]int, 400)
	for i := range sizes {
		sizes[i] = 800 + i%7
	}
	want := writeBodies(t, fs, "/s", sizes)
	r, err := NewSeqReader(fs, "/s", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	pooled := unsafe.SliceData(r.win)
	var keys []int32
	var vals [][]byte
	for {
		k, v := new(types.IntWritable), new(types.BytesWritable)
		ok, err := r.Next(k, v)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if within(v.B, r.win) {
			t.Fatal("a copy-mode value is a view of the window")
		}
		keys, vals = append(keys, k.Get()), append(vals, v.B)
	}
	if unsafe.SliceData(r.win) != pooled {
		t.Error("the copy-mode reader left its pooled window")
	}
	r.Close()
	if _, _, err := readSplits(fs, "/s", -1, nil, false); err != nil {
		t.Fatal(err)
	}
	if err := checkRecords(keys, vals, want); err != nil {
		t.Error(err)
	}
}

// TestSeqReaderTruncated: a file cut inside a record, a record's framing or
// a sync marker fails the read with io.ErrUnexpectedEOF in both modes; it
// never ends the split early. A file cut between records reads as the
// records before the cut.
func TestSeqReaderTruncated(t *testing.T) {
	fs := seqFS(t, 1<<20)
	sizes := []int{10, 3000, 0, wio.OwnedFloor, 70000, 5, 2500, 2500, 900}
	writeBodies(t, fs, "/s", sizes)
	data, err := dfs.ReadAll(fs, "/s")
	if err != nil {
		t.Fatal(err)
	}
	// Where each record ends, as a reader sees it.
	r, err := NewSeqReader(fs, "/s", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int64{r.pos()}
	for {
		k, v := new(types.IntWritable), new(types.BytesWritable)
		ok, err := r.Next(k, v)
		if err != nil || !ok {
			break
		}
		ends = append(ends, r.pos())
	}
	r.Close()
	// The first sync marker past the header's.
	if bytes.Count(data, r.sync[:]) < 2 {
		t.Fatal("the file holds no sync marker past its header")
	}
	marker := int(ends[0]) + bytes.Index(data[ends[0]:], r.sync[:])
	cuts := map[int64]string{
		int64(marker) + 5:             "inside a sync marker",
		int64(marker) - 2:             "inside a sync escape",
		ends[1] + 2:                   "inside a record length",
		ends[1] + 6:                   "inside a key length",
		ends[2] - 1:                   "a record's last byte",
		(ends[4] + ends[5]) / 2:       "inside a 70000-byte value",
		ends[len(ends)-1] - int64(10): "inside the last record",
	}
	cutFile := func(n int64) {
		t.Helper()
		if fs.Exists("/cut") {
			if err := fs.Delete("/cut", false); err != nil {
				t.Fatal(err)
			}
		}
		if err := dfs.WriteFile(fs, "/cut", data[:n]); err != nil {
			t.Fatal(err)
		}
	}
	for cut, what := range cuts {
		cutFile(cut)
		for _, owned := range []bool{false, true} {
			_, _, err := readSplits(fs, "/cut", cut, nil, owned)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("cut %s (at %d), owned %v: got %v, want io.ErrUnexpectedEOF", what, cut, owned, err)
			}
		}
	}
	for i, end := range ends {
		cutFile(end)
		keys, _, err := readSplits(fs, "/cut", end, nil, true)
		if err != nil || len(keys) != i {
			t.Errorf("cut after %d records: %d records, %v", i, len(keys), err)
		}
	}
}

// FuzzSeqReader writes records of the sizes spec spells (two bytes a
// record) and reads the file as three splits cut at a and b, in copy mode
// and in owned mode, under poison, over 16 KiB blocks: every record comes
// back once, in order, unchanged, and owned values still read as written
// after every split is closed.
func FuzzSeqReader(f *testing.F) {
	f.Add([]byte{0, 10, 1, 0, 0, 0, 8, 0}, uint32(100), uint32(3000))
	f.Add([]byte{0xff, 0xff, 0, 255, 1, 0, 0, 0, 0xf8, 0, 0xf2, 1}, uint32(7), uint32(40000))
	f.Add(bytes.Repeat([]byte{8, 0}, 300), uint32(1<<20), uint32(123457))
	fs := seqFS(f, 16<<10)
	f.Fuzz(func(t *testing.T, spec []byte, a, b uint32) {
		poisoned(t)
		var sizes []int
		for i, total := 0, 0; i+1 < len(spec) && total < 512<<10; i += 2 {
			// Up to 4 KiB, or 32 times that when the first byte's high
			// nibble is 0xf: past a 64 KiB read, or the copy-mode window.
			n := int(spec[i]&0x0f)<<8 | int(spec[i+1])
			if spec[i]&0xf0 == 0xf0 {
				n *= 32
			}
			sizes = append(sizes, n)
			total += n
		}
		want := writeBodies(t, fs, "/f", sizes)
		defer fs.Delete("/f", false)
		st, err := fs.Stat("/f")
		if err != nil {
			t.Fatal(err)
		}
		offs := []int64{int64(a) % (st.Size + 1), int64(b) % (st.Size + 1)}
		if offs[0] > offs[1] {
			offs[0], offs[1] = offs[1], offs[0]
		}
		var keptKeys []int32
		var kept [][]byte
		for _, owned := range []bool{false, true} {
			keys, vals, err := readSplits(fs, "/f", st.Size, offs, owned)
			if err == nil {
				err = checkRecords(keys, vals, want)
			}
			if err != nil {
				t.Fatalf("splits at %v, owned %v: %v", offs, owned, err)
			}
			keptKeys, kept = keys, vals
		}
		if _, _, err := readSplits(fs, "/f", st.Size, nil, false); err != nil {
			t.Fatal(err)
		}
		if err := checkRecords(keptKeys, kept, want); err != nil {
			t.Fatalf("owned values after their readers closed: %v", err)
		}
	})
}
