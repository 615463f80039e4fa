package engine_test

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"m3r/internal/engine"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// drainErr collects a MergeIter until EOF or error.
func drainErr(it *engine.MergeIter) ([]wio.Pair, error) {
	var out []wio.Pair
	for {
		p, ok, err := it.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, p)
	}
}

// buildMixedReaders constructs one merge leaf per run: spillMask selects
// which runs live on disk in the spill record format (decoded by the merge)
// and which stay in memory. Rebuilding with the same mask reproduces the
// exact same leaf set, so serial and staged merges see identical inputs.
func buildMixedReaders(t *testing.T, dir string, runs [][]wio.Pair, spillMask []bool) []engine.RunReader {
	t.Helper()
	readers := make([]engine.RunReader, len(runs))
	for i, run := range runs {
		if spillMask[i] {
			readers[i] = spillRun(t, dir, i, run)
		} else {
			readers[i] = engine.NewSliceRunReader(run)
		}
	}
	return readers
}

// TestParallelMergeMatchesSerial is the equivalence property test for the
// staged merge: over random run sets — varying run counts, duplicate-heavy
// keys, empty runs, in-memory/spilled/mixed leaves — the staged merge's
// output must be byte-identical (keys, values, and order among equal keys)
// to the serial MergeIter, at every parallelism 1..8, including stage
// counts exceeding the run count (some subsets empty).
func TestParallelMergeMatchesSerial(t *testing.T) {
	cmp := types.IntRawComparator{}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		k := 1 + rng.Intn(16)
		keySpace := 1 + rng.Intn(12) // small: lots of cross-run duplicates
		t.Run(fmt.Sprintf("seed%d_k%d_keys%d", seed, k, keySpace), func(t *testing.T) {
			runs := makeRuns(rng, k, 48, keySpace)
			spillMask := make([]bool, k)
			switch seed % 3 {
			case 0: // all in memory
			case 1: // all spilled
				for i := range spillMask {
					spillMask[i] = true
				}
			default: // mixed
				for i := range spillMask {
					spillMask[i] = rng.Intn(2) == 0
				}
			}
			dir := t.TempDir()
			serial, err := engine.NewMergeIter(buildMixedReaders(t, dir, runs, spillMask), cmp)
			if err != nil {
				t.Fatal(err)
			}
			want, err := drainErr(serial)
			serial.Close()
			if err != nil {
				t.Fatal(err)
			}
			for par := 1; par <= 8; par++ {
				it, err := engine.NewParallelMergeIter(buildMixedReaders(t, dir, runs, spillMask), cmp, par)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				got, err := drainErr(it)
				it.Close()
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				requireIdentical(t, want, got)
			}
		})
	}
}

// TestParallelMergeAllEqualKeys pins the pure-stability contract across
// stage boundaries: every key equal, so the output must be exactly the runs
// concatenated in source order — subset tie-breaks and the final
// tournament's tie-breaks must compose into the flat lower-source rule.
func TestParallelMergeAllEqualKeys(t *testing.T) {
	dir := t.TempDir()
	var runs [][]wio.Pair
	seq := 0
	for i := 0; i < 12; i++ {
		var run []wio.Pair
		for j := 0; j <= i%4; j++ {
			run = append(run, wio.Pair{
				Key:   types.NewInt(7),
				Value: types.NewLong(int64(seq)),
			})
			seq++
		}
		runs = append(runs, run)
	}
	spillMask := make([]bool, len(runs))
	for i := range spillMask {
		spillMask[i] = i%3 == 0 // mixed leaves across the subsets
	}
	for _, par := range []int{2, 3, 4, 8} {
		it, err := engine.NewParallelMergeIter(buildMixedReaders(t, dir, runs, spillMask), types.IntRawComparator{}, par)
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainErr(it)
		it.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != seq {
			t.Fatalf("parallelism %d: want %d pairs, got %d", par, seq, len(got))
		}
		for i, p := range got {
			if v := p.Value.(*types.LongWritable).Get(); v != int64(i) {
				t.Fatalf("parallelism %d: stability broken at %d: got value %d", par, i, v)
			}
		}
	}
}

// truncatedSpillReader spills run to disk, truncates the file by one byte,
// and returns a decoding leaf that will fail mid-stream with
// io.ErrUnexpectedEOF.
func truncatedSpillReader(t *testing.T, dir string, run []wio.Pair) engine.RunReader {
	t.Helper()
	path := filepath.Join(dir, "trunc")
	n := writeSpill(t, path, runRecs(t, run))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := spill.OpenSegment(path, spill.Segment{Off: 0, Len: n})
	if err != nil {
		t.Fatal(err)
	}
	return newDecodedRun(t, s, types.IntName, types.LongName)
}

// TestParallelMergeTruncatedSpillSurfaces pins the error-cancellation path:
// a truncated spilled run decoding inside a worker goroutine must surface
// io.ErrUnexpectedEOF from MergeIter — no hang, no silent short stream —
// and Close must release every leaf, including the healthy siblings'
// spilled-run file handles.
func TestParallelMergeTruncatedSpillSurfaces(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := spill.OpenStreamCount()
	for _, par := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			runs := makeRuns(rng, 8, 64, 4)
			for len(runs[3]) < 2 {
				runs = makeRuns(rng, 8, 64, 4)
			}
			dir := t.TempDir()
			readers := make([]engine.RunReader, len(runs))
			for i, run := range runs {
				switch {
				case i == 3:
					readers[i] = truncatedSpillReader(t, dir, run)
				case i%2 == 0:
					readers[i] = spillRun(t, dir, i, run)
				default:
					readers[i] = engine.NewSliceRunReader(run)
				}
			}
			it, err := engine.NewParallelMergeIter(readers, types.IntRawComparator{}, par)
			if err == nil {
				_, err = drainErr(it)
				it.Close()
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
			}
			if n := spill.OpenStreamCount(); n != base {
				t.Fatalf("%d spill streams left open after failed merge", n-base)
			}
		})
	}
}

// TestParallelMergeCloseEarly pins teardown mid-merge (a reducer error or
// job abort): Close must cancel the workers and release every spilled-run
// file handle before returning, even with most of the stream unconsumed.
func TestParallelMergeCloseEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := spill.OpenStreamCount()
	runs := makeRuns(rng, 12, 256, 8)
	dir := t.TempDir()
	readers := make([]engine.RunReader, len(runs))
	for i, run := range runs {
		if i%2 == 0 {
			readers[i] = spillRun(t, dir, i, run)
		} else {
			readers[i] = engine.NewSliceRunReader(run)
		}
	}
	it, err := engine.NewParallelMergeIter(readers, types.IntRawComparator{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok, err := it.Next(); err != nil || !ok {
			t.Fatalf("pair %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if n := spill.OpenStreamCount(); n != base {
		t.Fatalf("%d spill streams left open after early close", n-base)
	}
}

// FuzzParallelMergeSpill fuzzes the staged merge over decoded spill
// streams, reusing the internal/spill fuzz corpus seeds: the fuzz bytes
// derive a sorted run of valid records plus a truncation point. A clean
// segment must merge byte-identically to the serial merge; a truncated
// segment must surface io.ErrUnexpectedEOF — at open when the cut is inside
// its header, else from MergeIter while it decodes inside a worker
// goroutine: no hang, no silent partial reducer input — with every leaf
// released afterwards.
func FuzzParallelMergeSpill(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{2, 'a', 'b', 1, 'x'})
	f.Add([]byte{2, 'a'})
	f.Add([]byte{0x80})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		cmp := types.IntRawComparator{}
		// Derive a sorted run of valid Int/Long records from the fuzz bytes.
		n := len(data)/2 + 1
		run := make([]wio.Pair, 0, n)
		for j := 0; j < n; j++ {
			var k int32
			if 2*j+1 < len(data) {
				k = int32(data[2*j])<<8 | int32(data[2*j+1])
			} else if 2*j < len(data) {
				k = int32(data[2*j])
			}
			run = append(run, wio.Pair{Key: types.NewInt(k), Value: types.NewLong(int64(j))})
		}
		engine.SortPairs(run, cmp)
		path := filepath.Join(t.TempDir(), "seg")
		total := writeSpill(t, path, runRecs(t, run))
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The fuzz bytes also pick the truncation point; cut == total keeps
		// the segment intact.
		cut := total
		if len(data) > 2 {
			cut = int64(data[2]) * total / 255
		}
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		// Two healthy in-memory sibling runs around the fuzzed segment.
		healthy := func(lo, hi int32, base int64) []wio.Pair {
			out := []wio.Pair{}
			for v := lo; v < hi; v++ {
				out = append(out, wio.Pair{Key: types.NewInt(v * 31), Value: types.NewLong(base + int64(v))})
			}
			return out
		}
		build := func() ([]engine.RunReader, error) {
			s, err := spill.OpenSegment(path, spill.Segment{Off: 0, Len: total})
			if err != nil {
				return nil, err
			}
			return []engine.RunReader{
				engine.NewSliceRunReader(healthy(0, 20, 1000)),
				newDecodedRun(t, s, types.IntName, types.LongName),
				engine.NewSliceRunReader(healthy(5, 25, 2000)),
			}, nil
		}

		base := spill.OpenStreamCount()
		var want []wio.Pair
		if cut == total {
			readers, err := build()
			if err != nil {
				t.Fatal(err)
			}
			serial, err := engine.NewMergeIter(readers, cmp)
			if err != nil {
				t.Fatal(err)
			}
			want, err = drainErr(serial)
			serial.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, stages := range []int{2, 3} {
			readers, err := build()
			var got []wio.Pair
			if err == nil {
				var it *engine.MergeIter
				if it, err = engine.NewParallelMergeIter(readers, cmp, stages); err == nil {
					got, err = drainErr(it)
					it.Close()
				}
			}
			if cut == total {
				if err != nil {
					t.Fatalf("stages %d: clean segment errored: %v", stages, err)
				}
				requireIdentical(t, want, got)
			} else if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("stages %d: truncated segment: got %v, want io.ErrUnexpectedEOF", stages, err)
			}
			if n := spill.OpenStreamCount(); n != base {
				t.Fatalf("stages %d: %d spill streams left open", stages, n-base)
			}
		}
	})
}

// drainAll fully consumes a MergeIter, for benchmarks.
func drainAll(b *testing.B, it *engine.MergeIter) int {
	n := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			return n
		}
		n++
	}
}

// BenchmarkParallelMerge compares the serial reduce-side merge against the
// staged parallel merge across a (runs × pairs × parallelism) grid.
// parallel1 routes through the staged machinery with one worker, isolating
// the channel hand-off overhead from the parallel speedup.
func BenchmarkParallelMerge(b *testing.B) {
	cmp := types.IntRawComparator{}
	for _, runCount := range []int{16, 64} {
		for _, runLen := range []int{1024, 4096} {
			rng := rand.New(rand.NewSource(1))
			runs := make([][]wio.Pair, runCount)
			for i := range runs {
				run := make([]wio.Pair, 0, runLen)
				for j := 0; j < runLen; j++ {
					run = append(run, wio.Pair{
						Key:   types.NewInt(rng.Int31()),
						Value: types.NewLong(int64(i*runLen + j)),
					})
				}
				engine.SortPairs(run, cmp)
				runs[i] = run
			}
			newReaders := func() []engine.RunReader {
				readers := make([]engine.RunReader, len(runs))
				for i, run := range runs {
					readers[i] = engine.NewSliceRunReader(run)
				}
				return readers
			}
			total := runCount * runLen
			b.Run(fmt.Sprintf("runs%d/pairs%d/serial", runCount, runLen), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					it, err := engine.NewMergeIter(newReaders(), cmp)
					if err != nil {
						b.Fatal(err)
					}
					if n := drainAll(b, it); n != total {
						b.Fatalf("drained %d of %d", n, total)
					}
					it.Close()
				}
			})
			for _, par := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("runs%d/pairs%d/parallel%d", runCount, runLen, par), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						it, err := engine.NewParallelMergeIter(newReaders(), cmp, par)
						if err != nil {
							b.Fatal(err)
						}
						if n := drainAll(b, it); n != total {
							b.Fatalf("drained %d of %d", n, total)
						}
						it.Close()
					}
				})
			}
		}
	}
}
