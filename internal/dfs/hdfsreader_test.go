package dfs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"m3r/internal/sim"
	"m3r/internal/testenv"
)

// The streaming block reader: the contract it shares with the local
// filesystem, what it charges and when, what a damaged block file returns,
// and what a read allocates.

// patterned returns n bytes no two nearby offsets of which agree.
func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

// readerOp is one step of a reader script: a Seek when seek is set, else a
// read of n bytes through io.ReadFull (n == 0: one zero-length Read).
type readerOp struct {
	seek   bool
	off    int64
	whence int
	n      int
}

func seekTo(off int64, whence int) readerOp { return readerOp{seek: true, off: off, whence: whence} }
func readN(n int) readerOp                  { return readerOp{n: n} }

// contractBlock is the HDFS block size of the contract file: neither a
// multiple nor a divisor of a record reader's 64 KiB reads.
const contractBlock = 100 << 10

// contractScripts run against every filesystem; positions and bytes are
// checked against the file's contents after every step.
var contractScripts = []struct {
	name string
	ops  []readerOp
}{
	{"sequential across blocks", []readerOp{readN(7000), readN(contractBlock), readN(1), readN(300 << 10)}},
	{"sequential in small reads", func() []readerOp {
		var ops []readerOp
		for i := 0; i < 80; i++ {
			ops = append(ops, readN(4096))
		}
		return ops
	}()},
	{"seek within a block", []readerOp{
		seekTo(10, io.SeekStart), readN(100), seekTo(5000, io.SeekStart), readN(100),
		seekTo(200, io.SeekStart), readN(50), seekTo(30, io.SeekCurrent), readN(10),
	}},
	{"seek across blocks", []readerOp{
		seekTo(contractBlock-10, io.SeekStart), readN(20), seekTo(250000, io.SeekStart), readN(100),
		seekTo(2*contractBlock, io.SeekStart), readN(contractBlock + 17),
	}},
	{"seek backwards", []readerOp{
		seekTo(250000, io.SeekStart), readN(10), seekTo(100, io.SeekStart), readN(10),
		seekTo(-20, io.SeekCurrent), readN(5), seekTo(-5, io.SeekEnd), readN(10),
		seekTo(-contractBlock, io.SeekEnd), readN(64),
	}},
	{"seek past EOF", []readerOp{
		seekTo(1<<20, io.SeekStart), readN(1), readN(0), seekTo(3, io.SeekEnd), readN(8),
		seekTo(0, io.SeekStart), readN(10),
	}},
	{"zero-length reads", []readerOp{
		readN(0), seekTo(contractBlock, io.SeekStart), readN(0), readN(3),
		seekTo(0, io.SeekEnd), readN(0),
	}},
	{"reads straddling 64 KiB", []readerOp{
		readN(65530), readN(20), seekTo(contractBlock+65530, io.SeekStart), readN(100),
		seekTo(1000, io.SeekStart), readN(70000), readN(64 << 10), readN(64<<10 - 1),
		seekTo(65535, io.SeekStart), readN(2),
	}},
}

// contractSize is not a multiple of the block or of 64 KiB.
const contractSize = 3*contractBlock + 123

// runReaderScript plays ops on f against a model of data.
func runReaderScript(t *testing.T, f File, data []byte, ops []readerOp) {
	t.Helper()
	size := int64(len(data))
	var pos int64
	for i, op := range ops {
		if op.seek {
			var want int64
			switch op.whence {
			case io.SeekStart:
				want = op.off
			case io.SeekCurrent:
				want = pos + op.off
			case io.SeekEnd:
				want = size + op.off
			}
			got, err := f.Seek(op.off, op.whence)
			if err != nil || got != want {
				t.Fatalf("op %d: Seek(%d, %d) = %d, %v; want %d", i, op.off, op.whence, got, err, want)
			}
			pos = want
			continue
		}
		var want []byte
		if pos < size {
			want = data[pos:min(pos+int64(op.n), size)]
		}
		if op.n == 0 {
			n, err := f.Read(nil)
			if n != 0 || (pos < size && err != nil) || (err != nil && err != io.EOF) {
				t.Fatalf("op %d: zero-length Read at %d = %d, %v", i, pos, n, err)
			}
			continue
		}
		buf := make([]byte, op.n)
		n, err := io.ReadFull(f, buf)
		var wantErr error
		switch {
		case len(want) == 0:
			wantErr = io.EOF
		case len(want) < op.n:
			wantErr = io.ErrUnexpectedEOF
		}
		if n != len(want) || err != wantErr || !bytes.Equal(buf[:n], want) {
			t.Fatalf("op %d: ReadFull(%d) at %d = %d, %v; want %d, %v (bytes equal: %v)",
				i, op.n, pos, n, err, len(want), wantErr, bytes.Equal(buf[:n], want))
		}
		pos += int64(n)
	}
	if _, err := f.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("Seek to a negative position succeeded")
	}
}

func TestReaderContract(t *testing.T) {
	data := patterned(contractSize)
	base := OpenReaderCount()
	hdfs, _ := newReaderFS(t, contractBlock)
	local, err := NewLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range []struct {
		name string
		fs   FileSystem
	}{{"hdfs", hdfs}, {"local", local}} {
		if err := WriteFile(fs.fs, "/f", data); err != nil {
			t.Fatal(err)
		}
		for _, sc := range contractScripts {
			t.Run(fs.name+"/"+sc.name, func(t *testing.T) {
				f, err := fs.fs.Open("/f")
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				runReaderScript(t, f, data, sc.ops)
			})
		}
	}
	if n := OpenReaderCount(); n != base {
		t.Fatalf("OpenReaderCount = %d after every reader closed, baseline %d", n, base)
	}
}

// newReaderFS is three hosts, one replica each, placed round robin: block
// i of the first file written lives on host n<i mod 3>.
func newReaderFS(t testing.TB, blockSize int64) (*HDFS, *sim.Stats) {
	t.Helper()
	stats := sim.NewStats()
	fs, err := NewHDFS(HDFSOptions{
		Root: t.TempDir(), Hosts: []string{"n0", "n1", "n2"}, BlockSize: blockSize,
		Stats: stats, Cost: &sim.CostModel{DiskBytesPerSec: 1e9, NetBytesPerSec: 1e9, NetLatency: netCall},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs, stats
}

// netCall is the modelled latency of one ChargeNet, far above any block's
// length in bytes, so the modelled network time counts the calls.
const netCall = 1 << 30

// TestHDFSReadCharges pins what a reader charges: each time it moves onto a
// block, the bytes it reads there before it moves off of disk time, as many
// of network time plus one call's latency when the block has no replica on
// the reader's host, and every byte returned as read. A sequential read
// pays each block's whole length once. The file's three blocks are 1024,
// 1024 and 500 bytes on hosts n0, n1 and n2, read from n0.
func TestHDFSReadCharges(t *testing.T) {
	cases := []struct {
		name string
		read func(t *testing.T, f File)
		// disk: bytes charged; net: off-host moves and their bytes;
		// returned: bytes read.
		disk, netCalls, netBytes, returned int64
	}{
		{"sequential", func(t *testing.T, f File) {
			if _, err := io.Copy(io.Discard, bufio.NewReaderSize(f, 300)); err != nil {
				t.Fatal(err)
			}
		}, 2548, 2, 1524, 2548},
		{"seek back", func(t *testing.T, f File) {
			for _, op := range []struct{ off, n int64 }{
				{0, 100},    // onto block 0
				{1500, 100}, // onto block 1, off host
				{50, 100},   // back onto block 0: charged again
				{60, 10},    // inside block 0: no charge
				{2100, -1},  // onto nothing yet: no read
				{10, 10},    // back onto block 0 after leaving it: charged again
			} {
				if _, err := f.Seek(op.off, io.SeekStart); err != nil {
					t.Fatal(err)
				}
				if op.n < 0 {
					continue
				}
				if _, err := io.ReadFull(f, make([]byte, op.n)); err != nil {
					t.Fatal(err)
				}
			}
		}, 320, 1, 100, 320},
		{"split entry", func(t *testing.T, f File) {
			// A line reader's split at 1024: one byte before it, then on.
			if _, err := f.Seek(1023, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(bufio.NewReader(f), make([]byte, 1000)); err != nil {
				t.Fatal(err)
			}
		}, 1025, 1, 1024, 1025},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs, stats := newReaderFS(t, 1024)
			if err := WriteFile(fs, "/f", patterned(2548)); err != nil {
				t.Fatal(err)
			}
			disk0, net0 := stats.Get(sim.DiskDelayNs), stats.Get(sim.NetDelayNs)
			f, err := fs.OpenFrom("/f", "n0")
			if err != nil {
				t.Fatal(err)
			}
			c.read(t, f)
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			disk, net := stats.Get(sim.DiskDelayNs)-disk0, stats.Get(sim.NetDelayNs)-net0
			if disk != c.disk || net != c.netCalls*netCall+c.netBytes {
				t.Errorf("charged disk %d, net %d calls + %d; want %d, %d + %d",
					disk, net/netCall, net%netCall, c.disk, c.netCalls, c.netBytes)
			}
			if got := stats.Get(sim.HDFSReadBytes); got != c.returned {
				t.Errorf("HDFSReadBytes = %d, want %d", got, c.returned)
			}
		})
	}
}

// TestHDFSSplitChargesItsHeaderBytes is a SequenceFile split's shape: a
// 305 KB file of 64 KiB blocks, read from the host of none of them, whose
// splits at 64 and 128 KiB each read a hundred header bytes from offset 0
// and then their own 64 KiB. Block 0 is charged the hundred bytes it gave,
// not its 65 536, plus the one network latency of moving onto it.
func TestHDFSSplitChargesItsHeaderBytes(t *testing.T) {
	const block, header = 64 << 10, 100
	fs, stats := newReaderFS(t, block)
	if err := WriteFile(fs, "/seq", patterned(305<<10)); err != nil {
		t.Fatal(err)
	}
	for _, start := range []int64{block, 2 * block} {
		disk0, net0 := stats.Get(sim.DiskDelayNs), stats.Get(sim.NetDelayNs)
		f, err := fs.OpenFrom("/seq", "elsewhere")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(f, make([]byte, header)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(start, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(f, make([]byte, block)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		disk, net := stats.Get(sim.DiskDelayNs)-disk0, stats.Get(sim.NetDelayNs)-net0
		if want := int64(header + block); disk != want || net != 2*netCall+want {
			t.Errorf("split at %d: charged disk %d, net %d calls + %d; want %d, 2 + %d", start, disk, net/netCall, net%netCall, want, want)
		}
	}
}

// TestHDFSShortBlockFile: a block file shorter than its recorded length is
// io.ErrUnexpectedEOF wrapped with the path, and a missing one the open
// error, from every read that reaches them — never a hang or a panic.
func TestHDFSShortBlockFile(t *testing.T) {
	cases := []struct {
		name   string
		damage func(path string) error
		read   func(f File) error
		want   error
	}{
		{"sequential read", func(p string) error { return os.Truncate(p, 100) }, func(f File) error {
			_, err := io.ReadFull(f, make([]byte, 3000))
			return err
		}, io.ErrUnexpectedEOF},
		{"seek into the missing tail", func(p string) error { return os.Truncate(p, 100) }, func(f File) error {
			if _, err := f.Seek(1024+500, io.SeekStart); err != nil {
				return err
			}
			_, err := f.Read(make([]byte, 10))
			return err
		}, io.ErrUnexpectedEOF},
		{"missing block file", os.Remove, func(f File) error {
			_, err := io.ReadFull(f, make([]byte, 3000))
			return err
		}, os.ErrNotExist},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs, _ := newReaderFS(t, 1024)
			if err := WriteFile(fs, "/f", patterned(3000)); err != nil {
				t.Fatal(err)
			}
			if err := c.damage(fs.blockPath(1)); err != nil {
				t.Fatal(err)
			}
			f, err := fs.Open("/f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			for try := 0; try < 2; try++ { // the failure repeats
				err := c.read(f)
				if !errors.Is(err, c.want) || !strings.HasPrefix(err.Error(), "dfs: reading block of /f: ") {
					t.Fatalf("try %d: read = %v, want dfs: reading block of /f: … %v", try, err, c.want)
				}
				if _, err := f.Seek(0, io.SeekStart); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestHDFSReaderClose(t *testing.T) {
	fs, _ := newReaderFS(t, 1024)
	if err := WriteFile(fs, "/f", patterned(3000)); err != nil {
		t.Fatal(err)
	}
	fdBase, base := openFDs(t), OpenReaderCount()
	f, err := fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if n := OpenReaderCount(); n != base+1 {
		t.Fatalf("OpenReaderCount = %d with one reader open, baseline %d", n, base)
	}
	r := f.(*hdfsReader)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if r.f != nil {
		t.Fatal("closed reader still holds its block file")
	}
	if n := OpenReaderCount(); n != base {
		t.Fatalf("OpenReaderCount = %d after Close, baseline %d", n, base)
	}
	if _, err := f.Read(make([]byte, 10)); err == nil {
		t.Fatal("Read after Close succeeded")
	}
	if n := openFDs(t); n != fdBase {
		t.Fatalf("%d descriptors open, baseline %d", n, fdBase)
	}
}

// readThrough opens path, reads it to the end through buf and closes it.
func readThrough(fs FileSystem, path string, buf []byte) error {
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	for {
		_, err = f.Read(buf)
		if err != nil {
			break
		}
	}
	if err == io.EOF {
		err = nil
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// TestHDFSReadAllocs: reading 16 MiB in two blocks in 4 KiB pieces
// allocates the reader and the two block files' handles, and no read
// buffer: each read goes straight into the caller's slice. The ceilings are
// the values measured in 20 runs at each of GOMAXPROCS 1, 2 and 4 (amd64,
// go1.24) plus 5 % for bytes and 3 % for allocations.
func TestHDFSReadAllocs(t *testing.T) {
	if testenv.Race || runtime.GOARCH != "amd64" {
		t.Skip("allocation ceilings are measured on amd64 without -race")
	}
	const (
		maxColdBytes = 1537 // measured 1 016–1 464: the reader and the handles
		maxAllocs    = 12   // measured 12
	)
	fs, _ := newReaderFS(t, 8<<20)
	if err := WriteFile(fs, "/f", patterned(16<<20)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	read := func() {
		if err := readThrough(fs, "/f", buf); err != nil {
			t.Fatal(err)
		}
	}
	read()
	n := testing.AllocsPerRun(10, read)
	t.Logf("%.0f allocations a read", n)
	if n > maxAllocs {
		t.Errorf("%.0f allocations a read, ceiling %d", n, maxAllocs)
	}
	cold := uint64(1 << 62)
	for try := 0; try < 3; try++ { // the fewest: the count is the process's
		runtime.GC()
		runtime.GC() // every sync.Pool is empty after two collections
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		read()
		runtime.ReadMemStats(&m1)
		cold = min(cold, m1.TotalAlloc-m0.TotalAlloc)
	}
	t.Logf("%d bytes allocated by a read on empty pools", cold)
	if cold > maxColdBytes {
		t.Errorf("%d bytes allocated by a read on empty pools, ceiling %d", cold, maxColdBytes)
	}
}

// BenchmarkHDFSRead opens a file, reads it to its end in pieces of 4 KiB
// (a small-read caller's, every one a ReadAt of the block file) or of
// 128 KiB (a record reader's window), and closes it.
func BenchmarkHDFSRead(b *testing.B) {
	for _, size := range []int{1 << 10, 200 << 10, 16 << 20} {
		name := fmt.Sprintf("%dKiB", size>>10)
		if size >= 1<<20 {
			name = fmt.Sprintf("%dMiB", size>>20)
		}
		b.Run(name, func(b *testing.B) {
			fs, _ := newReaderFS(b, 8<<20)
			if err := WriteFile(fs, "/f", patterned(size)); err != nil {
				b.Fatal(err)
			}
			for _, piece := range []int{4 << 10, 128 << 10} {
				b.Run(fmt.Sprintf("%dKiB", piece>>10), func(b *testing.B) {
					buf := make([]byte, piece)
					b.SetBytes(int64(size))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := readThrough(fs, "/f", buf); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
