package kvstore

import (
	"os"
	"path/filepath"
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
