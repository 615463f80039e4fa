package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"m3r/internal/engine"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/testenv"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/x10"
)

// budgetedStore is a one-place store under a private pool of limit bytes,
// its spill directory under a private TMPDIR.
func budgetedStore(t *testing.T, limit int64) (*Store, *engine.BudgetPool) {
	return budgetedStoreCodec(t, limit, spill.CodecNone)
}

// budgetedStoreCodec is budgetedStore spilling its blocks through codec.
func budgetedStoreCodec(t *testing.T, limit int64, codec spill.Codec) (*Store, *engine.BudgetPool) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	s := New(x10.NewRuntime(x10.Options{Places: 1, Stats: sim.NewStats(), Cost: sim.Zero()}))
	pool := engine.NewBudgetPool(limit)
	s.SetBudget([]*engine.JobBudget{pool.Job("cache", 0)}, codec)
	t.Cleanup(s.DropBudget)
	return s, pool
}

func blockOf(n int) ([]wio.Pair, int64) {
	ps := make([]wio.Pair, n)
	for i := range ps {
		ps[i] = wio.Pair{Key: types.NewInt(int32(i)), Value: types.NewText("v")}
	}
	_, _, _, size, err := spill.MarshalRun(ps)
	if err != nil {
		panic(err)
	}
	return ps, size
}

func put(s *Store, path string, ps []wio.Pair) error {
	w, err := s.CreateWriter(0, path, "")
	if err != nil {
		return err
	}
	w.AppendAll(ps)
	_, err = w.Close()
	return err
}

func spillFiles(t *testing.T) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(os.TempDir(), "m3r-cache-*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// TestDeleteDuringEvictionReleasesOnce: a Delete of an eviction's victim
// lands after the evictor took it out of the index and before its spill
// write. The victim's reservation is the evictor's: the free releases
// nothing, the evictor's bytes fund the newcomer, and every reservation is
// released exactly once — JobBudget.Release panics on an over-release —
// so the pool returns to where it was before the first commit.
func TestDeleteDuringEvictionReleasesOnce(t *testing.T) {
	big, bigSize := blockOf(32)
	small, smallSize := blockOf(4)
	s, pool := budgetedStore(t, bigSize)
	before := pool.Held()
	if err := put(s, "/big", big); err != nil {
		t.Fatal(err)
	}
	b := s.budget.Load()
	// The evictor makes its spill file name under dirMu, after taking the
	// victim out of the index and before writing it.
	b.dirMu.Lock()
	done := make(chan error)
	go func() { done <- put(s, "/small", small) }()
	for b.idx[0].Len() != 0 {
		time.Sleep(time.Millisecond)
	}
	if err := s.Delete("/big"); err != nil {
		t.Fatal(err)
	}
	b.dirMu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if held, res := pool.Held(), s.ResidentBytes(); held != before+smallSize || res != smallSize {
		t.Fatalf("after the evicted victim's delete: held %d, resident %d; want %d and %d", held, res, before+smallSize, smallSize)
	}
	if n := s.SpilledBlocks(); n != 0 {
		t.Fatalf("%d blocks spilled; the victim was deleted before its spill landed", n)
	}
	if err := s.Delete("/small"); err != nil {
		t.Fatal(err)
	}
	if held, res := pool.Held(), s.ResidentBytes(); held != before || res != 0 {
		t.Fatalf("after deleting everything: held %d, resident %d; want %d and 0", held, res, before)
	}
	if n := spillFiles(t); n != 0 {
		t.Fatalf("%d spill files left", n)
	}
}

// TestFailedEvictionKeepsTheVictim: a victim whose spill write fails stays
// resident with its reservation and goes back to the index; the newcomer's
// commit fails, holding nothing.
func TestFailedEvictionKeepsTheVictim(t *testing.T) {
	big, bigSize := blockOf(32)
	small, _ := blockOf(4)
	s, pool := budgetedStore(t, bigSize)
	if err := put(s, "/big", big); err != nil {
		t.Fatal(err)
	}
	b := s.budget.Load()
	b.dir = filepath.Join(t.TempDir(), "missing") // every spill write fails
	if err := put(s, "/small", small); err == nil {
		t.Fatal("commit succeeded although its eviction could not write the victim")
	}
	if held, res := pool.Held(), s.ResidentBytes(); held != bigSize || res != bigSize || b.idx[0].Len() != 1 {
		t.Fatalf("held %d, resident %d, %d indexed; want the victim's %d, %[4]d, 1", held, res, b.idx[0].Len(), bigSize)
	}
	if err := s.Delete("/big"); err != nil {
		t.Fatal(err)
	}
	if held, res := pool.Held(), s.ResidentBytes(); held != 0 || res != 0 {
		t.Fatalf("after the delete: held %d, resident %d", held, res)
	}
	// The failed newcomer stays readable on the heap, unaccounted.
	info, ok := s.GetInfo("/small")
	if !ok || len(info.Blocks) != 1 {
		t.Fatalf("failed commit's path: ok %v, %d blocks", ok, len(info.Blocks))
	}
	r, err := s.CreateReader(0, "/small", info.Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(small) {
		t.Fatalf("failed commit's block reads %d pairs, want %d", r.Len(), len(small))
	}
}

// TestSpilledBlockLengthChecked: a spilled block decodes into exactly its
// own pair count, and a file that holds another count — here the two
// blocks' files swapped — is an error naming the file, never a short read
// or another block's pairs.
func TestSpilledBlockLengthChecked(t *testing.T) {
	s, _ := budgetedStore(t, 1) // admits nothing: every block spills
	a, _ := blockOf(4)
	b, _ := blockOf(8)
	if err := put(s, "/a", a); err != nil {
		t.Fatal(err)
	}
	if err := put(s, "/b", b); err != nil {
		t.Fatal(err)
	}
	if n := s.SpilledBlocks(); n != 2 {
		t.Fatalf("%d blocks spilled, want 2", n)
	}
	spillOf := func(path string) (BlockInfo, string) {
		t.Helper()
		info, ok := s.GetInfo(path)
		if !ok || len(info.Blocks) != 1 {
			t.Fatalf("%s: ok %v, %d blocks", path, ok, len(info.Blocks))
		}
		bd := s.data[0].m[info.Blocks[0]]
		if bd == nil || bd.spill == nil {
			t.Fatalf("%s is not spilled", path)
		}
		return info.Blocks[0], bd.spill.path
	}
	infoA, fileA := spillOf("/a")
	infoB, fileB := spillOf("/b")
	for path, want := range map[string]int{"/a": 4, "/b": 8} {
		info, _ := spillOf(path)
		r, err := s.CreateReader(0, path, info)
		if err != nil || r.Len() != want || cap(r.Pairs()) != want {
			t.Fatalf("%s before the swap: %d pairs of capacity %d, err %v; want %d", path, r.Len(), cap(r.Pairs()), err, want)
		}
	}

	tmp := fileA + ".swap"
	for _, mv := range [][2]string{{fileA, tmp}, {fileB, fileA}, {tmp, fileB}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		path, file string
		info       BlockInfo
	}{{"/a", fileA, infoA}, {"/b", fileB, infoB}} {
		if r, err := s.CreateReader(0, c.path, c.info); err == nil || !strings.Contains(err.Error(), c.file) {
			n := -1
			if r != nil {
				n = r.Len()
			}
			t.Errorf("%s over the other block's file: %d pairs, err %v; want an error naming %s", c.path, n, err, c.file)
		}
	}
}

// TestSpilledBlockReadsAreIndependent: a spilled block is decoded afresh at
// every read, into objects from slabs. A reader may keep and even change
// what it was handed: a second read, and every other object the first read
// handed out — the changed one's slab-mates among them — are untouched.
func TestSpilledBlockReadsAreIndependent(t *testing.T) {
	const n = 600
	s, _ := budgetedStore(t, 1) // admits nothing: the block spills, and never readmits
	ps := make([]wio.Pair, n)
	want := make([]string, n)
	for i := range ps {
		ps[i] = wio.Pair{Key: types.NewInt(int32(i)), Value: types.NewText(fmt.Sprintf("value %d", i))}
		want[i] = fmt.Sprint(i, ps[i].Value)
	}
	if err := put(s, "/a", ps); err != nil {
		t.Fatal(err)
	}
	info, ok := s.GetInfo("/a")
	if !ok || len(info.Blocks) != 1 || s.SpilledBlocks() != 1 {
		t.Fatalf("ok %v, %d blocks, %d spilled; want one spilled block", ok, len(info.Blocks), s.SpilledBlocks())
	}
	read := func() []wio.Pair {
		t.Helper()
		r, err := s.CreateReader(0, "/a", info.Blocks[0])
		if err != nil {
			t.Fatal(err)
		}
		got := r.Pairs()
		if len(got) != n {
			t.Fatalf("%d pairs read, want %d", len(got), n)
		}
		return got
	}
	first := read()
	const changed = 100
	first[changed].Key.(*types.IntWritable).V = -1
	first[changed].Value.(*types.Text).Set("changed")
	second := read()
	mine := map[wio.Writable]bool{}
	for _, p := range first {
		mine[p.Key], mine[p.Value] = true, true
	}
	for i := range second {
		if got := fmt.Sprint(second[i].Key.(*types.IntWritable).V, second[i].Value); got != want[i] {
			t.Errorf("second read, pair %d: %q, want %q", i, got, want[i])
		}
		if mine[second[i].Key] || mine[second[i].Value] {
			t.Fatalf("second read, pair %d: an object the first read handed out", i)
		}
		if i == changed {
			continue
		}
		if got := fmt.Sprint(first[i].Key.(*types.IntWritable).V, first[i].Value); got != want[i] {
			t.Errorf("first read, pair %d: %q after pair %d changed, want %q", i, got, changed, want[i])
		}
	}
}

// TestSpilledBlockReadsBackWhereItLies: a spilled block of (LongWritable,
// Text) lines, several segment blocks long, and one of (IntWritable,
// BytesWritable) bodies from empty to one longer than a segment block read
// back equal to what was written, under both codecs, every non-empty body a
// view of one buffer a segment block: a read allocates one fewer object a
// body than a copying read (allocsSaved). The first read's values are the
// first read's alone: they read as written after a second read, after the
// block readmits, is evicted again and is read back, and after plain
// streams have sent their recycled block buffers back to the pool,
// poisoned. A spill file cut short fails with io.ErrUnexpectedEOF, and one
// whose first block declares another raw length with
// spill.ErrBlockSizeMismatch.
func TestSpilledBlockReadsBackWhereItLies(t *testing.T) {
	if !spill.PoisonRecycledBlocks.Load() {
		t.Fatal("the package's TestMain poisons recycled blocks")
	}
	lines := make([]wio.Pair, 3000)
	for i := range lines {
		lines[i] = wio.Pair{Key: types.NewLong(int64(i) * 61), Value: types.NewText(fmt.Sprintf("line %d: %s", i, strings.Repeat(string(rune('a'+i%26)), i%50)))}
	}
	sizes := []int{0, 1, wio.OwnedFloor - 1, wio.OwnedFloor, 3000, 100 << 10}
	bodies := make([]wio.Pair, 60)
	for i := range bodies {
		bodies[i] = wio.Pair{Key: types.NewInt(int32(i)), Value: types.NewBytes(bytes.Repeat([]byte{byte(i)}, sizes[i%len(sizes)]))}
	}
	text := func(ps []wio.Pair) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = fmt.Sprintf("%v\t%q", p.Key, wio.Writable(p.Value))
			if b, ok := p.Value.(*types.BytesWritable); ok {
				out[i] = fmt.Sprintf("%v\t%q", p.Key, b.B)
			}
		}
		return out
	}
	for _, codec := range []spill.Codec{spill.CodecNone, spill.CodecFlate} {
		for name, block := range map[string][]wio.Pair{"lines": lines, "bodies": bodies} {
			t.Run(fmt.Sprintf("%s/%v", name, codec), func(t *testing.T) {
				_, _, _, size, err := spill.MarshalRun(block)
				if err != nil {
					t.Fatal(err)
				}
				want := text(block)
				// The pool holds the block: a small block's commit evicts
				// it, the larger one.
				s, _ := budgetedStoreCodec(t, size, codec)
				small, _ := blockOf(4)
				for path, ps := range map[string][]wio.Pair{"/a": block, "/b": small} {
					if err := put(s, path, ps); err != nil {
						t.Fatal(err)
					}
				}
				info, ok := s.GetInfo("/a")
				if !ok || len(info.Blocks) != 1 {
					t.Fatalf("/a: ok %v, %d blocks", ok, len(info.Blocks))
				}
				blk := info.Blocks[0]
				spilled := func() spilledBlock {
					t.Helper()
					bd := s.data[0].m[blk]
					if bd == nil || bd.spill == nil {
						t.Fatal("/a is not spilled")
					}
					return *bd.spill
				}
				read := func(when string) []wio.Pair {
					t.Helper()
					ps, _, err := s.ReadPairs(0, "/a", blk)
					if err != nil {
						t.Fatalf("%s: %v", when, err)
					}
					if got := text(ps); !slices.Equal(got, want) {
						t.Fatalf("%s: the block reads back otherwise than written", when)
					}
					return ps
				}
				sp := spilled()
				if !testenv.Race { // sync.Pool drops a share of what is Put
					allocsSaved(t, sp, blk.Pairs, block, size)
				}
				first := read("first read")
				for _, p := range first {
					if b, ok := p.Value.(*types.BytesWritable); ok && cap(b.B) != len(b.B) {
						t.Fatalf("a body of %d bytes with capacity %d", len(b.B), cap(b.B))
					}
					if b, ok := p.Value.(*types.Text); ok && cap(b.B) != len(b.B) {
						t.Fatalf("a line of %d bytes with capacity %d", len(b.B), cap(b.B))
					}
				}
				check := func(when string) {
					t.Helper()
					if got := text(first); !slices.Equal(got, want) {
						t.Fatalf("the first read's values changed %s", when)
					}
				}
				read("second read")
				check("after a second read")

				// Readmit: /b goes, so /a's read reinstates it; then /c's
				// commit evicts it again, and it reads back from its new file.
				if err := s.Delete("/b"); err != nil {
					t.Fatal(err)
				}
				read("readmitting read")
				if s.ReadmittedBlocks() != 1 || s.data[0].m[blk].spill != nil {
					t.Fatalf("%d blocks readmitted; /a's read did not reinstate it", s.ReadmittedBlocks())
				}
				if err := put(s, "/c", small); err != nil {
					t.Fatal(err)
				}
				sp = spilled()
				read("read after a second eviction")
				check("after an evict/readmit cycle")

				// Plain streams take block buffers from the pool and give
				// them back poisoned.
				for range 3 {
					st, err := spill.OpenFile(sp.path)
					if err != nil {
						t.Fatal(err)
					}
					for {
						_, ok, err := st.Next()
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							break
						}
					}
					st.Close()
				}
				check("after other streams recycled their blocks")

				// Damage: a cut file, then a first block that declares one
				// more or one fewer raw byte (a varint's low bit flipped).
				intact, err := os.ReadFile(sp.path)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					name string
					data []byte
					want error
				}{
					{"cut short", intact[:len(intact)/2], io.ErrUnexpectedEOF},
					{"another raw length", func() []byte {
						b := bytes.Clone(intact)
						b[7] ^= 1 // 6 header bytes, the codec byte, then rawLen
						return b
					}(), spill.ErrBlockSizeMismatch},
				} {
					if err := os.WriteFile(sp.path, c.data, 0o644); err != nil {
						t.Fatal(err)
					}
					if _, _, err := s.ReadPairs(0, "/a", blk); !errors.Is(err, c.want) {
						t.Errorf("%s: %v, want %v", c.name, err, c.want)
					}
				}
				if err := os.WriteFile(sp.path, intact, 0o644); err != nil {
					t.Fatal(err)
				}
				read("read of the restored file")
				check("at the end")
			})
		}
	}
}

// copyingRead is decodeSpilledBlock as it was before spilled blocks were
// read where they lie: a stream of pooled block buffers, and every body
// copied out of them.
func copyingRead(t *testing.T, sp spilledBlock, n int64) {
	st, err := spill.OpenFile(sp.path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	dec, err := spill.NewPairDecoder(sp.keyClass, sp.valClass, int(n), true)
	if err != nil {
		t.Fatal(err)
	}
	for {
		rec, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
		if _, err := dec.Decode(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// allocsSaved checks that decodeSpilledBlock reads the n pairs of sp —
// block as written, of size record-format bytes — back in at least one
// allocation fewer a non-empty body than a copying read of the same file
// does, less one fresh buffer a segment block.
func allocsSaved(t *testing.T, sp spilledBlock, n int64, block []wio.Pair, size int64) {
	t.Helper()
	owned := testing.AllocsPerRun(5, func() {
		if _, err := decodeSpilledBlock(sp, n); err != nil {
			t.Fatal(err)
		}
	})
	copied := testing.AllocsPerRun(5, func() { copyingRead(t, sp, n) })
	// One fresh buffer a segment block: at most one a 64 KiB, and one an
	// oversized record.
	nonEmpty, segBlocks := 0, size>>16+1
	for _, p := range block {
		if b, ok := p.Value.(*types.BytesWritable); !ok || len(b.B) > 0 {
			nonEmpty++
		}
		if b, ok := p.Value.(*types.BytesWritable); ok && len(b.B) >= 64<<10 {
			segBlocks++
		}
	}
	// A collection may empty the pooled flate decoders between runs: their
	// refill is a few allocations of noise.
	const noise = 8
	if saved := copied - owned; saved < float64(int64(nonEmpty)-segBlocks-noise) {
		t.Errorf("%.0f allocations to read %d pairs back, %.0f copying them: want at least %d fewer (%d non-empty bodies, at most %d segment blocks, %d of noise)",
			owned, len(block), copied, int64(nonEmpty)-segBlocks-noise, nonEmpty, segBlocks, noise)
	}
}
