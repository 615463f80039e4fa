package kvstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"m3r/internal/engine"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/x10"
)

// budgetedStore is a one-place store under a private pool of limit bytes,
// its spill directory under a private TMPDIR.
func budgetedStore(t *testing.T, limit int64) (*Store, *engine.BudgetPool) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	s := New(x10.NewRuntime(x10.Options{Places: 1, Stats: sim.NewStats(), Cost: sim.Zero()}))
	pool := engine.NewBudgetPool(limit)
	s.SetBudget([]*engine.JobBudget{pool.Job("cache", 0)}, spill.CodecNone)
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
