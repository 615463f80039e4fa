package dfs

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"m3r/internal/sim"
)

// The streaming block writer: where blocks are cut, what is charged and
// when, and what a failure leaves behind — no block file, no descriptor,
// no pooled buffer kept.

// unitCost charges 1 ns per byte of disk and of network without sleeping,
// so a test can read what was charged off the stats.
func unitCost() *sim.CostModel {
	return &sim.CostModel{DiskBytesPerSec: 1e9, NetBytesPerSec: 1e9}
}

func newWriterFS(t *testing.T, blockSize int64) (*HDFS, *sim.Stats) {
	t.Helper()
	stats := sim.NewStats()
	fs, err := NewHDFS(HDFSOptions{
		Root: t.TempDir(), Hosts: []string{"n0", "n1", "n2"}, BlockSize: blockSize,
		Replication: 2, Stats: stats, Cost: unitCost(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs, stats
}

// blockFiles lists what is on disk under the filesystem's root.
func blockFiles(t *testing.T, fs *HDFS) []string {
	t.Helper()
	ents, err := os.ReadDir(fs.root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

func TestHDFSWriterBlockBoundaries(t *testing.T) {
	const bs = 16
	payload := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + i%26)
		}
		return b
	}
	cases := []struct {
		name   string
		writes []int // sizes of successive Write calls
		blocks []int64
	}{
		{"empty file", nil, nil},
		{"empty writes only", []int{0, 0}, nil},
		{"under one block", []int{5}, []int64{5}},
		{"exactly one block", []int{16}, []int64{16}},
		{"exact multiple in one write", []int{48}, []int64{16, 16, 16}},
		{"exact multiple in block-sized writes", []int{16, 16}, []int64{16, 16}},
		{"writes straddling the boundary", []int{10, 10, 10}, []int64{16, 14}},
		{"one write spanning many blocks", []int{100}, []int64{16, 16, 16, 16, 16, 16, 4}},
		{"one-byte writes", repeatInt(1, 35), []int64{16, 16, 3}},
	}
	fdBase := openFDs(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs, stats := newWriterFS(t, bs)
			w, err := fs.Create("/f")
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			for _, n := range c.writes {
				p := payload(n)
				if m, err := w.Write(p); err != nil || m != n {
					t.Fatalf("Write(%d bytes) = %d, %v", n, m, err)
				}
				want = append(want, p...)
				// Charges follow completed blocks, never buffered bytes.
				if got, full := stats.Get(sim.HDFSWriteBytes), int64(len(want)/bs*bs); got != full {
					t.Fatalf("after %d bytes HDFSWriteBytes = %d, want %d (completed blocks only)", len(want), got, full)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if _, err := w.Write([]byte("x")); err == nil {
				t.Fatal("Write after Close should fail")
			}

			st, err := fs.Stat("/f")
			if err != nil || st.Size != int64(len(want)) {
				t.Fatalf("Stat = %+v, %v; want size %d", st, err, len(want))
			}
			locs, err := fs.BlockLocations("/f", 0, int64(len(want))+1)
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			for _, l := range locs {
				got = append(got, l.Length)
				if len(l.Hosts) != 2 {
					t.Fatalf("block has replicas %v, want 2", l.Hosts)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(c.blocks) {
				t.Fatalf("block lengths %v, want %v", got, c.blocks)
			}
			if files := blockFiles(t, fs); len(files) != len(c.blocks) {
				t.Fatalf("block files %v, want %d", files, len(c.blocks))
			}
			// Per block: its bytes once in HDFSWriteBytes, disk on both
			// replicas, network for the second.
			ref := sim.NewStats()
			for _, n := range c.blocks {
				unitCost().ChargeDisk(ref, 2*n)
				unitCost().ChargeNet(ref, n)
			}
			if stats.Get(sim.HDFSWriteBytes) != int64(len(want)) ||
				stats.Get(sim.DiskDelayNs) != ref.Get(sim.DiskDelayNs) ||
				stats.Get(sim.NetDelayNs) != ref.Get(sim.NetDelayNs) {
				t.Fatalf("charged %d bytes, %d ns disk, %d ns net; want %d, %d, %d",
					stats.Get(sim.HDFSWriteBytes), stats.Get(sim.DiskDelayNs), stats.Get(sim.NetDelayNs),
					len(want), ref.Get(sim.DiskDelayNs), ref.Get(sim.NetDelayNs))
			}

			f, err := fs.Open("/f")
			if err != nil {
				t.Fatal(err)
			}
			back, err := io.ReadAll(f)
			f.Close()
			if err != nil || !bytes.Equal(back, want) {
				t.Fatalf("read back %q, %v; want %q", back, err, want)
			}

		})
	}
	if n := openFDs(t); n != fdBase {
		t.Fatalf("%d descriptors open, baseline %d", n, fdBase)
	}
}

func repeatInt(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestHDFSWriterDeleteDuringWrite(t *testing.T) {
	fdBase := openFDs(t)
	fs, _ := newWriterFS(t, 16)
	w, err := fs.Create("/dir/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 40)); err != nil { // two blocks and a half
		t.Fatal(err)
	}
	if err := fs.Delete("/dir", true); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 3)); err != nil {
		t.Fatalf("Write after the delete: %v (the loss is reported by Close)", err)
	}
	err = w.Close()
	if err == nil || !strings.Contains(err.Error(), "deleted during write") {
		t.Fatalf("Close = %v, want the deleted-during-write error", err)
	}
	if files := blockFiles(t, fs); len(files) != 0 {
		t.Fatalf("block files left behind: %v", files)
	}
	if fs.Exists("/dir/f") {
		t.Fatal("deleted file reappeared")
	}
	if n := openFDs(t); n != fdBase {
		t.Fatalf("%d descriptors open, baseline %d", n, fdBase)
	}
}

// assertDiscarded checks what every failed writer must leave behind.
func assertDiscarded(t *testing.T, fs *HDFS, w *hdfsWriter, fdBase int) {
	t.Helper()
	if w.f != nil || w.bw != nil {
		t.Fatal("failed writer still holds its block file or pooled buffer")
	}
	if files := blockFiles(t, fs); len(files) != 0 {
		t.Fatalf("block files left behind: %v", files)
	}
	if n := openFDs(t); n != fdBase {
		t.Fatalf("%d descriptors open, baseline %d", n, fdBase)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("Write on a failed writer should keep failing")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close on a failed writer should report the failure")
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("Write after Close should fail")
	}
}

// fullDisk makes block id's file a link to /dev/full: it opens, and every
// write that reaches it fails with ENOSPC — a flush failure on demand.
func fullDisk(t *testing.T, fs *HDFS, id int64) {
	t.Helper()
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	if err := os.Symlink("/dev/full", fs.blockPath(id)); err != nil {
		t.Fatal(err)
	}
}

func TestHDFSWriterFlushFailureAtBlockBoundary(t *testing.T) {
	fdBase := openFDs(t)
	fs, stats := newWriterFS(t, 16)
	fullDisk(t, fs, 1)
	wc, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	w := wc.(*hdfsWriter)
	// Block 0 completes; block 1 fills, and its flush hits the full disk.
	if _, err := w.Write(make([]byte, 32)); err == nil {
		t.Fatal("Write whose block flush fails should fail")
	}
	if got := stats.Get(sim.HDFSWriteBytes); got != 16 {
		t.Fatalf("HDFSWriteBytes = %d, want 16: only the completed block is charged", got)
	}
	assertDiscarded(t, fs, w, fdBase)
}

func TestHDFSWriterFlushFailureAtClose(t *testing.T) {
	fdBase := openFDs(t)
	fs, stats := newWriterFS(t, 16)
	fullDisk(t, fs, 1)
	wc, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	w := wc.(*hdfsWriter)
	if _, err := w.Write(make([]byte, 20)); err != nil { // 4 bytes sit in block 1's buffer
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close whose final flush fails should fail")
	}
	if got := stats.Get(sim.HDFSWriteBytes); got != 16 {
		t.Fatalf("HDFSWriteBytes = %d, want 16", got)
	}
	w.closed = false // look at the failed state the way a caller that had not closed yet would
	assertDiscarded(t, fs, w, fdBase)
	// The reserved path is still there, empty, as after any failed write.
	if st, err := fs.Stat("/f"); err != nil || st.Size != 0 {
		t.Fatalf("Stat after failed close = %+v, %v", st, err)
	}
}

func TestHDFSWriterCreateFailure(t *testing.T) {
	fdBase := openFDs(t)
	fs, _ := newWriterFS(t, 16)
	wc, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	w := wc.(*hdfsWriter)
	if _, err := w.Write(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	// Something else sits where block 1's file should go.
	if err := os.Mkdir(fs.blockPath(1), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("Write that cannot create its block file should fail")
	}
	if err := os.Remove(fs.blockPath(1)); err != nil {
		t.Fatal(err)
	}
	// Block 0 was complete and on disk; a failed writer removes it too.
	assertDiscarded(t, fs, w, fdBase)
}

// BenchmarkHDFSWrite is the dfs write rung of the layer ladder: one 4 MiB
// file in 4 KiB writes (a SeqWriter's bufio flushes) over 256 KiB and over
// 8 MiB blocks, the two block sizes the repository benchmark runs.
func BenchmarkHDFSWrite(b *testing.B) {
	chunk := make([]byte, 4<<10)
	const fileSize = 4 << 20
	for _, bs := range []int64{256 << 10, 8 << 20} {
		b.Run(fmt.Sprintf("block=%dKiB", bs>>10), func(b *testing.B) {
			fs, err := NewHDFS(HDFSOptions{Root: filepath.Join(b.TempDir(), "hdfs"), BlockSize: bs})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(fileSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				path := fmt.Sprintf("/f%d", i)
				w, err := fs.Create(path)
				if err != nil {
					b.Fatal(err)
				}
				for n := 0; n < fileSize; n += len(chunk) {
					if _, err := w.Write(chunk); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				if err := fs.Delete(path, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
