package spill

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"m3r/internal/testenv"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// wordPairs builds a WordCount-shaped run: n sorted Text keys, count 1 each.
func wordPairs(n int) []wio.Pair {
	pairs := make([]wio.Pair, n)
	for i := range pairs {
		pairs[i] = wio.Pair{Key: types.NewText(fmt.Sprintf("word_%06d", i)), Value: types.NewInt(1)}
	}
	return pairs
}

// TestMarshalRunMatchesMarshalPerField encodes one run through the shape
// MarshalRun replaced — wio.Marshal of every key and every value — and
// through the slab: same records, same class names, same accounting size,
// and the same segment bytes under both codecs.
func TestMarshalRunMatchesMarshalPerField(t *testing.T) {
	pairs := wordPairs(3000)
	pairs = append(pairs, wio.Pair{Key: types.NewText(""), Value: types.NewInt(-1)})
	want := make([]Rec, len(pairs))
	var wantSize int64
	for i, p := range pairs {
		kb, err := wio.Marshal(p.Key)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := wio.Marshal(p.Value)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = Rec{K: kb, V: vb}
		wantSize += want[i].Size()
	}
	recs, keyClass, valClass, size, err := MarshalRun(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if keyClass != "org.apache.hadoop.io.Text" || valClass != "org.apache.hadoop.io.IntWritable" || size != wantSize {
		t.Fatalf("MarshalRun = %s, %s, size %d; want Text, IntWritable, %d", keyClass, valClass, size, wantSize)
	}
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	for i := range recs {
		if !bytes.Equal(recs[i].K, want[i].K) || !bytes.Equal(recs[i].V, want[i].V) {
			t.Fatalf("record %d = (%x, %x), want (%x, %x)", i, recs[i].K, recs[i].V, want[i].K, want[i].V)
		}
		// Sub-slices are capped: appending to one record cannot overwrite
		// its neighbour in the slab.
		if cap(recs[i].K) != len(recs[i].K) || cap(recs[i].V) != len(recs[i].V) {
			t.Fatalf("record %d is not capped to its own bytes", i)
		}
	}
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		a, err := EncodeRun(recs, codec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeRun(want, codec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Data, b.Data) || a.Raw != b.Raw {
			t.Fatalf("codec %v: slab and per-field records encode to different segments", codec)
		}
	}
	// A run whose types the registry does not know cannot be encoded.
	if _, _, _, _, err := MarshalRun([]wio.Pair{{Key: unregistered{}, Value: types.NewInt(1)}}); err == nil {
		t.Fatal("MarshalRun of an unregistered key type should fail")
	}
}

type unregistered struct{ wio.Writable }

// TestRunSizeIsMarshalRunsSize: the counting pass sizes a run exactly as
// MarshalRun does, fails where it fails, and allocates nothing warm.
func TestRunSizeIsMarshalRunsSize(t *testing.T) {
	big := wio.Pair{Key: types.NewText(strings.Repeat("k", 70000)), Value: types.NewBytes(make([]byte, 300))}
	for _, pairs := range [][]wio.Pair{
		wordPairs(1), wordPairs(3000), {big, big},
		append(wordPairs(5), wio.Pair{Key: types.NewText(""), Value: types.NewInt(-1)}),
	} {
		_, _, _, want, err := MarshalRun(pairs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunSize(pairs)
		if err != nil || got != want {
			t.Fatalf("RunSize of %d pairs = %d, %v; MarshalRun's size is %d", len(pairs), got, err, want)
		}
		if testenv.Race {
			continue // sync.Pool sheds entries under the race detector
		}
		if a := testing.AllocsPerRun(20, func() { RunSize(pairs) }); a != 0 {
			t.Errorf("RunSize of %d pairs allocates %v times", len(pairs), a)
		}
	}
	if n, err := RunSize(nil); n != 0 || err != nil {
		t.Errorf("RunSize(nil) = %d, %v", n, err)
	}
	unregistered := []wio.Pair{{Key: types.NewText("k"), Value: &unregisteredValue{}}}
	if _, _, _, _, err := MarshalRun(unregistered); err == nil {
		t.Fatal("MarshalRun took an unregistered value class")
	}
	if _, err := RunSize(unregistered); err == nil {
		t.Error("RunSize took an unregistered value class")
	}
}

// unregisteredValue is a Writable no registry entry names.
type unregisteredValue struct{}

func (*unregisteredValue) WriteTo(*wio.Writer) error    { return nil }
func (*unregisteredValue) ReadFields(*wio.Reader) error { return nil }

func TestMarshalRunAllocationsIndependentOfLength(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	short, long := wordPairs(10), wordPairs(5000)
	MarshalRun(long) // grow the pooled scratch
	for _, pairs := range [][]wio.Pair{short, long} {
		a := testing.AllocsPerRun(20, func() {
			if _, _, _, _, err := MarshalRun(pairs); err != nil {
				t.Fatal(err)
			}
		})
		if a > 2 {
			t.Errorf("MarshalRun of %d pairs allocates %v times, want 2 (records and slab)", len(pairs), a)
		}
	}
}

// TestEncodeRunFlateReusesCompressor: a flate.Writer is ~750 KB, so a warm
// EncodeRun that allocates less than that per call has not built one.
func TestEncodeRunFlateReusesCompressor(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	recs := compressibleRecs(2000)
	// Two things empty a sync.Pool under a measuring window, and the run
	// that follows either rebuilds a compressor — the pool's contract, not a
	// leak: a collection, and the goroutine moving to another P, whose
	// private slot the pool cannot reach into. One rebuild in twenty runs
	// stayed just under the bound at the default level; a speed-level
	// flate.Writer is dearer to build and does not (13 of 80 package runs
	// read 81 KB a run). So the collector stays off and the test has one P
	// from the warming run to the last measured one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	first, err := EncodeRun(recs, CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		er, err := EncodeRun(recs, CodecFlate)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(er.Data, first.Data) {
			t.Fatal("a reused compressor produced different bytes")
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(len(first.Data)) + 64<<10; perRun > limit {
		t.Fatalf("warm flate EncodeRun allocates %d bytes per run, want under %d (the %d-byte result plus slack)",
			perRun, limit, len(first.Data))
	}
	if a := testing.AllocsPerRun(runs, func() { EncodeRun(recs, CodecFlate) }); a > 2 {
		t.Fatalf("warm flate EncodeRun allocates %v times per run, want at most 2", a)
	}
}

// TestEncodeRunNoneBuildsNoCompressor: a stored-block segment never builds
// the ~750 KB flate.Writer, so on emptied pools neither EncodeRun nor a
// SegmentWriter of codec none allocates as much as twice the segment it
// writes.
func TestEncodeRunNoneBuildsNoCompressor(t *testing.T) {
	recs := compressibleRecs(4000) // ~190 KB: three blocks
	for name, write := range map[string]func() int64{
		"EncodeRun": func() int64 {
			er, err := EncodeRun(recs, CodecNone)
			if err != nil {
				t.Fatal(err)
			}
			return int64(len(er.Data))
		},
		"SegmentWriter": func() int64 {
			sw := NewSegmentWriter(bufio.NewWriter(io.Discard), CodecNone)
			for _, r := range recs {
				if err := sw.Write(r); err != nil {
					t.Fatal(err)
				}
			}
			n, _, err := sw.Finish()
			if err != nil {
				t.Fatal(err)
			}
			return n
		},
	} {
		// Two collections empty a sync.Pool: the first moves its entries to
		// the victim cache, the second drops them.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := write()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2*uint64(n) {
			t.Errorf("%s: codec none on cold pools allocated %d bytes for a %d-byte segment, want under twice that", name, got, n)
		}
	}
}

// TestPooledInflaterSurvivesCorruptBlocks: an inflater that has just choked
// on a corrupt block goes back to the pool; the next block to draw it must
// decode as if the inflater were new, and each corruption must keep its
// error class.
func TestPooledInflaterSurvivesCorruptBlocks(t *testing.T) {
	payload := AppendRec(nil, Rec{K: []byte("abc"), V: []byte("defgh")})
	comp := deflate(t, payload)
	garbage := append([]byte(nil), comp...)
	for i := range garbage {
		garbage[i] ^= 0xa5
	}
	corrupt := []struct {
		name     string
		data     []byte
		mismatch bool
	}{
		{"inflates short", blockSegment(t, CodecFlate, uint64(len(payload))+1, comp), true},
		{"inflates beyond", blockSegment(t, CodecFlate, uint64(len(payload))-1, comp), true},
		{"cut body", blockSegment(t, CodecFlate, uint64(len(payload)), comp[:len(comp)/2]), true},
		{"garbage body", blockSegment(t, CodecFlate, uint64(len(payload)), garbage), false},
	}
	good := compressibleRecs(4000) // several blocks
	goodRun, err := EncodeRun(good, CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	goodPath := filepath.Join(dir, "good")
	if err := os.WriteFile(goodPath, goodRun.Data, 0o644); err != nil {
		t.Fatal(err)
	}
	base := OpenStreamCount()
	for round := 0; round < 3; round++ {
		for _, c := range corrupt {
			path := filepath.Join(dir, "bad")
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, ok, err := s.Next()
			s.Close()
			if ok || err == nil {
				t.Fatalf("%s: ok=%v err=%v, want an error", c.name, ok, err)
			}
			if errors.Is(err, ErrBlockSizeMismatch) != c.mismatch {
				t.Fatalf("%s: err=%v, ErrBlockSizeMismatch expected: %v", c.name, err, c.mismatch)
			}
			s, err = OpenFile(goodPath)
			if err != nil {
				t.Fatal(err)
			}
			got := readAll(t, s)
			s.Close()
			if len(got) != len(good) {
				t.Fatalf("after %s: %d records, want %d", c.name, len(got), len(good))
			}
			for i := range got {
				if !bytes.Equal(got[i].K, good[i].K) || !bytes.Equal(got[i].V, good[i].V) {
					t.Fatalf("after %s: record %d differs", c.name, i)
				}
			}
		}
	}
	if n := OpenStreamCount(); n != base {
		t.Fatalf("OpenStreamCount=%d baseline %d", n, base)
	}
}

// The spill rungs of the layer ladder.

func BenchmarkMarshalRun(b *testing.B) {
	pairs := wordPairs(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := MarshalRun(pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRun is the spill rungs' input: a 4 k-record sorted WordCount run.
func benchRun(b *testing.B) []Rec {
	recs, _, _, _, err := MarshalRun(wordPairs(4096))
	if err != nil {
		b.Fatal(err)
	}
	return recs
}

// perRec reports ns/rec and allocs/rec over the timed loop of b, n records
// an iteration; before is read just ahead of it.
func perRec(b *testing.B, before *runtime.MemStats, n int) {
	b.StopTimer()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	total := float64(b.N) * float64(n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/rec")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/rec")
}

func benchmarkEncodeRun(b *testing.B, codec Codec) {
	recs := benchRun(b)
	b.SetBytes(rawLen(recs))
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeRun(recs, codec); err != nil {
			b.Fatal(err)
		}
	}
	perRec(b, &before, len(recs))
}

func BenchmarkEncodeRunFlate(b *testing.B) { benchmarkEncodeRun(b, CodecFlate) }
func BenchmarkEncodeRunNone(b *testing.B)  { benchmarkEncodeRun(b, CodecNone) }

// BenchmarkStreamNext reads the run back from a temp file per codec: open,
// Next to the end, close.
func BenchmarkStreamNext(b *testing.B) {
	recs := benchRun(b)
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		b.Run(codec.String(), func(b *testing.B) {
			enc, err := EncodeRun(recs, codec)
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "run")
			if _, err := WriteEncodedFile(path, enc); err != nil {
				b.Fatal(err)
			}
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := OpenFile(path)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					_, ok, err := s.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					n++
				}
				s.Close()
				if n != len(recs) {
					b.Fatalf("read %d records, want %d", n, len(recs))
				}
			}
			perRec(b, &before, len(recs))
		})
	}
}

// BenchmarkSortRecs sorts one WordCount-shaped batch of serialized records —
// 8 k Text keys drawn Zipf-distributed from a thousand 8-byte words, what a
// Hadoop map task's sort buffer holds — with the plain stable sort SortRecs
// must match and with SortRecs, reporting time and allocations per record.
func BenchmarkSortRecs(b *testing.B) {
	const n = 8192
	rng := rand.New(rand.NewSource(15))
	zipf := rand.NewZipf(rng, 1.3, 1.0, 999)
	pairs := make([]wio.Pair, n)
	for i := range pairs {
		pairs[i] = wio.Pair{Key: types.NewText(fmt.Sprintf("word%04d", zipf.Uint64())), Value: types.NewInt(1)}
	}
	src, _, _, _, err := MarshalRun(pairs)
	if err != nil {
		b.Fatal(err)
	}
	work := make([]Rec, n)
	cmp := types.TextRawComparator{}
	for _, leg := range []struct {
		name string
		sort func()
	}{
		{"stable-reference", func() {
			slices.SortStableFunc(work, func(a, b Rec) int { return cmp.CompareRaw(a.K, b.K) })
		}},
		{"prefix", func() { SortRecs(work, cmp) }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, src)
				leg.sort()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			total := float64(b.N) * n
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/rec")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/rec")
		})
	}
}

// writeRun encodes recs with codec into a fresh file and returns its path.
func writeRun(t *testing.T, recs []Rec, codec Codec) string {
	t.Helper()
	enc, err := EncodeRun(recs, codec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run")
	if _, err := WriteEncodedFile(path, enc); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRecLifetimeUnderPoison pins a record's lifetime under the recycling
// contract, per codec, with released blocks poisoned: the first record of a
// segment of four blocks reads as written through every Next in its block
// and through the one that moves on to the second (the lookbehind a merge
// compares with), and it changes once the stream reads the third block.
// The last record survives the Next that ends the stream and changes at
// Close.
func TestRecLifetimeUnderPoison(t *testing.T) {
	PoisonRecycledBlocks.Store(true)
	defer PoisonRecycledBlocks.Store(false)
	recs := compressibleRecs(4000)
	same := func(a, b Rec) bool { return bytes.Equal(a.K, b.K) && bytes.Equal(a.V, b.V) }
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		s, err := OpenFile(writeRun(t, recs, codec))
		if err != nil {
			t.Fatal(err)
		}
		first, _, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		blocks, cur, last := 1, s.cur, first
		for i := 1; ; i++ {
			r, ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if s.cur != cur {
				blocks, cur = blocks+1, s.cur
			}
			switch intact := same(first, recs[0]); {
			case blocks <= 2 && !intact:
				t.Fatalf("%s: record 0 changed at record %d, in block %d", codec, i, blocks)
			case blocks > 2 && intact:
				t.Fatalf("%s: record 0 still reads as written at record %d, in block %d", codec, i, blocks)
			}
			last = r
		}
		if blocks < 3 {
			t.Fatalf("%s: %d blocks, the test needs three", codec, blocks)
		}
		if !same(last, recs[len(recs)-1]) {
			t.Fatalf("%s: the last record changed at the end of the stream", codec)
		}
		s.Close()
		if same(last, recs[len(recs)-1]) {
			t.Fatalf("%s: the last record still reads as written after Close", codec)
		}
	}
}

// TestStreamRecyclesBlockBuffers: once the pool is warm, a segment read
// allocates no block buffer, per codec. Reading six stored blocks costs the
// allocations of reading one (the file, the stream, its bufio.Reader); the
// inflater allocates Huffman tables per flate block, so there it is bytes
// that are pinned: five more blocks cost less than one block buffer.
func TestStreamRecyclesBlockBuffers(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	read := func(path string) func() {
		return func() {
			s, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for {
				_, ok, err := s.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return
				}
			}
		}
	}
	// Bytes per run, measured as TestEncodeRunFlateReusesCompressor does:
	// no collection and one P, so the pools keep what they are given.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	bytesPerRun := func(f func()) uint64 {
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		one := read(writeRun(t, compressibleRecs(1000), codec)) // ~50 KB: one block
		six := read(writeRun(t, compressibleRecs(7000), codec)) // ~350 KB: six blocks
		if b1, b6 := bytesPerRun(one), bytesPerRun(six); b6 >= b1+blockRawTarget {
			t.Errorf("%s: reading six blocks allocates %d bytes, one block %d: block buffers are not recycled", codec, b6, b1)
		}
		if codec != CodecNone {
			continue
		}
		if a1, a6 := testing.AllocsPerRun(runs, one), testing.AllocsPerRun(runs, six); a6 > a1 {
			t.Errorf("%s: reading six blocks allocates %v times, one block %v: block buffers are not recycled", codec, a6, a1)
		}
	}
}

// TestStreamsShareTheBlockPool: concurrent streams — reduce tasks merging at
// once — trade block buffers through the one pool, with released buffers
// poisoned. Every record each stream returns reads as written while it is
// valid, and none is handed a buffer another stream still reads.
func TestStreamsShareTheBlockPool(t *testing.T) {
	PoisonRecycledBlocks.Store(true)
	defer PoisonRecycledBlocks.Store(false)
	recs := compressibleRecs(4000)
	paths := []string{writeRun(t, recs, CodecNone), writeRun(t, recs, CodecFlate)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				s, err := OpenFile(paths[(g+round)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				var prev Rec
				for i := 0; ; i++ {
					r, ok, err := s.Next()
					if err != nil || !ok {
						if err != nil {
							t.Error(err)
						} else if i != len(recs) {
							t.Errorf("goroutine %d: %d records, want %d", g, i, len(recs))
						}
						break
					}
					// The record before is still valid: the lookbehind.
					if i > 0 && (!bytes.Equal(prev.K, recs[i-1].K) || !bytes.Equal(prev.V, recs[i-1].V)) {
						t.Errorf("goroutine %d: record %d changed under the next Next", g, i-1)
						break
					}
					if !bytes.Equal(r.K, recs[i].K) || !bytes.Equal(r.V, recs[i].V) {
						t.Errorf("goroutine %d: record %d differs", g, i)
						break
					}
					prev = r
				}
				s.Close()
			}
		}()
	}
	wg.Wait()
}

// TestOpenSmallSegmentBytes: opening a segment allocates a read buffer no
// larger than the segment, so a reducer that opens one stream per small map
// output segment does not pay bufio's 4 KiB default for each.
func TestOpenSmallSegmentBytes(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector allocates beside the program")
	}
	path := writeRun(t, []Rec{{K: []byte("key"), V: []byte("value")}}, CodecNone)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	open := func() {
		s, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	const runs = 50
	allocs := testing.AllocsPerRun(runs, open) // warms the pools too
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		open()
	}
	runtime.ReadMemStats(&after)
	// The stream, the file and its name, and the read buffer.
	if perOpen := (after.TotalAlloc - before.TotalAlloc) / runs; perOpen > 1024 {
		t.Errorf("opening a %d-byte segment allocates %d bytes in %v allocations, want at most 1 KiB", st.Size(), perOpen, allocs)
	}
}
