package m3r

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/types"
)

// newBudgetedCache wires a cache to a cacheGovernor over private per-place
// pools of budget bytes: on its own, the cache sees what a cap of budget
// within the engine's unlimited pool gives it.
func newBudgetedCache(t *testing.T, places int, budget int64) (*Cache, *cacheGovernor, *sim.Stats) {
	t.Helper()
	c, _ := newTestCache(places)
	stats := sim.NewStats()
	budgets := make([]*engine.JobBudget, places)
	for p := range budgets {
		budgets[p] = engine.NewBudgetPool(budget).Job(cacheTag, 0)
	}
	g := newCacheGovernor(stats, c.Store(), budgets, spill.CodecNone)
	c.Store().SetResidency(g)
	t.Cleanup(func() {
		c.Store().SetResidency(nil)
		g.close()
	})
	return c, g, stats
}

// entrySize measures the accounting size of an n-pair output entry by
// committing it under a generous budget and reading the resident gauge.
func entrySize(t *testing.T, n int) int64 {
	t.Helper()
	c, g, _ := newBudgetedCache(t, 1, 1<<30)
	writeOutput(t, c, 0, "/probe", n)
	if got := g.residentBytes(); got > 0 {
		return got
	}
	t.Fatal("probe entry not accounted")
	return 0
}

func writeOutput(t *testing.T, c *Cache, place int, path string, n int) {
	t.Helper()
	w, err := c.NewOutputWriter(place, path, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range somePairs(n) {
		w.Append(p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func checkPairs(t *testing.T, c *Cache, path string, n int) {
	t.Helper()
	pairs, ok, err := c.PathPairs(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if !ok || len(pairs) != n {
		t.Fatalf("read %s: ok=%v n=%d want %d", path, ok, len(pairs), n)
	}
	for i, p := range pairs {
		if p.Key.(*types.IntWritable).Get() != int32(i) {
			t.Fatalf("%s pair %d: got key %v", path, i, p.Key)
		}
	}
}

// ledgerQuiescent pins the tentpole's accounting invariant: at quiescence
// the cache tag's pool reservations equal the resident gauge exactly.
func ledgerQuiescent(t *testing.T, g *cacheGovernor) {
	t.Helper()
	if held, res := g.heldBytes(), g.residentBytes(); held != res {
		t.Fatalf("ledger: held=%d resident=%d", held, res)
	}
}

// TestCacheBudgetOverflowSpillsAndServes: a commit the pool cannot admit
// goes to disk cold from birth, reads stay transparent, and a denied
// readmit leaves the entry spilled without corrupting the ledger.
func TestCacheBudgetOverflowSpillsAndServes(t *testing.T) {
	size := entrySize(t, 8)
	c, g, stats := newBudgetedCache(t, 1, size) // room for exactly one entry
	writeOutput(t, c, 0, "/a", 8)
	if g.residentBytes() != size || g.spilledCount() != 0 {
		t.Fatalf("first entry should be resident: resident=%d spilled=%d", g.residentBytes(), g.spilledCount())
	}
	// Same-size newcomer: largest-first has no strictly larger victim, so
	// the newcomer itself spills.
	writeOutput(t, c, 0, "/b", 8)
	if g.spilledCount() != 1 {
		t.Fatalf("second entry should spill: spilled=%d", g.spilledCount())
	}
	ledgerQuiescent(t, g)
	// The spilled entry reads transparently; the budget is full, so the
	// read must NOT readmit it.
	checkPairs(t, c, "/b", 8)
	if g.readmittedCount() != 0 {
		t.Fatalf("full budget must deny readmit, got %d", g.readmittedCount())
	}
	checkPairs(t, c, "/a", 8)
	ledgerQuiescent(t, g)
	// Dropping the resident entry frees budget; the next read of /b
	// promotes it back to memory.
	if err := c.Drop("/a"); err != nil {
		t.Fatal(err)
	}
	if g.residentBytes() != 0 || g.heldBytes() != 0 {
		t.Fatalf("drop should drain: resident=%d held=%d", g.residentBytes(), g.heldBytes())
	}
	checkPairs(t, c, "/b", 8)
	if g.readmittedCount() != 1 {
		t.Fatalf("read should readmit into freed budget, got %d", g.readmittedCount())
	}
	if g.residentBytes() != size {
		t.Fatalf("readmitted entry not accounted: %d", g.residentBytes())
	}
	ledgerQuiescent(t, g)
	if stats.Get(sim.CacheSpilledEntries) != 1 || stats.Get(sim.CacheReadmittedEntries) != 1 {
		t.Fatalf("stats: spilled=%d readmitted=%d", stats.Get(sim.CacheSpilledEntries), stats.Get(sim.CacheReadmittedEntries))
	}
}

// TestCacheBudgetEvictsLargestFirst: a smaller newcomer evicts a strictly
// larger cold resident instead of spilling itself.
func TestCacheBudgetEvictsLargestFirst(t *testing.T) {
	big := entrySize(t, 32)
	c, g, _ := newBudgetedCache(t, 1, big)
	writeOutput(t, c, 0, "/big", 32)
	writeOutput(t, c, 0, "/small", 4)
	if g.spilledCount() != 1 {
		t.Fatalf("the big entry should have been evicted: spilled=%d", g.spilledCount())
	}
	small := g.residentBytes()
	if small <= 0 || small >= big {
		t.Fatalf("the small newcomer should be resident: resident=%d big=%d", small, big)
	}
	ledgerQuiescent(t, g)
	// Both entries read back intact, evicted or not.
	checkPairs(t, c, "/big", 32)
	checkPairs(t, c, "/small", 4)
	ledgerQuiescent(t, g)
}

// TestCacheBudgetSplitEntries: input-split entries go through the same
// admission, spill on overflow, and survive byte-identically.
func TestCacheBudgetSplitEntries(t *testing.T) {
	c, g, _ := newBudgetedCache(t, 2, 1) // admits nothing
	if err := c.PutSplit(1, "/data/f:0+100", somePairs(6)); err != nil {
		t.Fatal(err)
	}
	if g.spilledCount() != 1 || g.residentBytes() != 0 {
		t.Fatalf("split entry should spill under a full budget: spilled=%d resident=%d", g.spilledCount(), g.residentBytes())
	}
	ranges, ok, err := c.LookupSplit("/data/f:0+100", nil)
	if err != nil || !ok {
		t.Fatalf("lookup: ok=%v err=%v", ok, err)
	}
	pairs, _, err := c.ReadRanges(1, ranges)
	if err != nil || len(pairs) != 6 {
		t.Fatalf("read spilled split: n=%d err=%v", len(pairs), err)
	}
	ledgerQuiescent(t, g)
}

// TestCacheGovernorCloseDrains: closing the governor returns every cache
// reservation and removes the spill directory.
func TestCacheGovernorCloseDrains(t *testing.T) {
	size := entrySize(t, 8)
	c, _ := newTestCache(1)
	stats := sim.NewStats()
	pool := engine.NewBudgetPool(size)
	budgets := []*engine.JobBudget{pool.Job(cacheTag, 0)}
	g := newCacheGovernor(stats, c.Store(), budgets, spill.CodecNone)
	c.Store().SetResidency(g)
	writeOutput(t, c, 0, "/a", 8)
	writeOutput(t, c, 0, "/b", 8) // spills, populating the spill dir
	g.dirMu.Lock()
	dir := g.dir
	g.dirMu.Unlock()
	if dir == "" {
		t.Fatal("spill dir not created")
	}
	c.Store().SetResidency(nil)
	g.close()
	if pool.Held() != 0 {
		t.Fatalf("close must drain the pool, held=%d", pool.Held())
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("spill dir should be removed: %v", err)
	}
}

// TestPathPairsDistinguishesErrorFromMiss is the satellite regression for
// Cache.PathPairs: a real read failure on a cached entry (here, a spilled
// block whose file is gone) must surface as an error, not as "not cached" —
// while a genuine miss stays ok=false with no error.
func TestPathPairsDistinguishesErrorFromMiss(t *testing.T) {
	c, g, _ := newBudgetedCache(t, 1, 1) // everything spills
	writeOutput(t, c, 0, "/o/f", 5)
	if g.spilledCount() != 1 {
		t.Fatalf("entry should have spilled: %d", g.spilledCount())
	}
	// A miss is not an error.
	if _, ok, err := c.PathPairs("/no/such"); ok || err != nil {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}
	// Destroy the spilled image and read: the entry IS cached, the read
	// fails — the caller must see the failure, not a miss.
	g.dirMu.Lock()
	dir := g.dir
	g.dirMu.Unlock()
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("spill dir: %v entries=%d", err, len(ents))
	}
	for _, e := range ents {
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := c.PathPairs("/o/f"); err == nil {
		t.Fatalf("broken read must error, got ok=%v", ok)
	}
}

// TestGetCacheRecordReaderPropagatesReadError: the CacheFS query surfaces
// PathPairs' new error return instead of reporting "not cached".
func TestGetCacheRecordReaderPropagatesReadError(t *testing.T) {
	c, rt := newTestCache(1)
	budgets := []*engine.JobBudget{engine.NewBudgetPool(1).Job(cacheTag, 0)}
	g := newCacheGovernor(sim.NewStats(), c.Store(), budgets, spill.CodecNone)
	c.Store().SetResidency(g)
	t.Cleanup(func() { c.Store().SetResidency(nil); g.close() })
	backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir(), Hosts: []string{"node0"}})
	if err != nil {
		t.Fatal(err)
	}
	cfs := NewCachingFileSystem(backing, c, rt)
	writeOutput(t, c, 0, "/o/f", 5)
	g.dirMu.Lock()
	os.RemoveAll(g.dir)
	g.dirMu.Unlock()
	if _, ok, err := cfs.GetCacheRecordReader("/o/f"); err == nil {
		t.Fatalf("broken read must error, got ok=%v", ok)
	}
	if _, ok, err := cfs.GetCacheRecordReader("/absent"); ok || err != nil {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}
}

// TestBlockPairsMalformedTagFailsLoudly is the satellite regression for
// blockPairs: a multi-block entry whose block tag is missing or malformed
// must fail the lookup loudly instead of silently contributing 0 pairs.
func TestBlockPairsMalformedTagFailsLoudly(t *testing.T) {
	c, _ := newTestCache(1)
	// Two blocks on one cache-only path: the first with a well-formed
	// pair-count tag, the second with a malformed one — not "n=" followed
	// by a decimal count and nothing else.
	for b, bad := range []string{"bogus", "", "n=", "n=x", "n=-1", "n=3x", "n= 3", "n=+", "N=3", "n=99999999999999999999"} {
		path := fmt.Sprintf("/multi%d", b)
		for i, tag := range []string{"n=3", bad} {
			w, err := c.Store().CreateWriter(0, path, tag)
			if err != nil {
				t.Fatal(err)
			}
			w.AppendAll(somePairs(3))
			if _, err := w.Close(); err != nil {
				t.Fatalf("tag %q block %d: %v", bad, i, err)
			}
		}
		if err := c.Store().SetAttr(path, attrCacheOnly, "1"); err != nil {
			t.Fatal(err)
		}
		view := &fileSplitView{path: path, start: 0, length: 6}
		_, _, err := c.LookupSplit(path+":0+6", view)
		if err == nil {
			t.Fatalf("tag %q: malformed multi-block tag must fail the lookup", bad)
		}
		if !strings.Contains(err.Error(), "pair-count tag") {
			t.Fatalf("tag %q: unexpected error: %v", bad, err)
		}
	}
	// A single-block entry without a tag still falls back to the path
	// total — the benign legacy layout stays readable.
	wr, err := c.Store().CreateWriter(0, "/single", "")
	if err != nil {
		t.Fatal(err)
	}
	wr.AppendAll(somePairs(4))
	if _, err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Store().SetAttr("/single", attrCacheOnly, "1"); err != nil {
		t.Fatal(err)
	}
	ranges, ok, err := c.LookupSplit("/single:0+4", &fileSplitView{path: "/single", start: 0, length: 4})
	if err != nil || !ok || len(ranges) != 1 {
		t.Fatalf("single-block fallback: ok=%v ranges=%d err=%v", ok, len(ranges), err)
	}
}

// TestCacheOutputHomesBlocksAtPlace is the satellite regression for
// CachingFileSystem.CacheOutput: the entry's block must land at the writing
// task's place, not hardcoded place 0.
func TestCacheOutputHomesBlocksAtPlace(t *testing.T) {
	c, rt := newTestCache(3)
	backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir(), Hosts: []string{"node0", "node1", "node2"}})
	if err != nil {
		t.Fatal(err)
	}
	cfs := NewCachingFileSystem(backing, c, rt)
	for place := 0; place < 3; place++ {
		path := fmt.Sprintf("/side/part-%d", place)
		if err := cfs.CacheOutput(place, path, somePairs(2)); err != nil {
			t.Fatal(err)
		}
		info, ok := c.Store().GetInfo(path)
		if !ok || len(info.Blocks) != 1 {
			t.Fatalf("entry %s: ok=%v blocks=%d", path, ok, len(info.Blocks))
		}
		if got := info.Blocks[0].Place; got != place {
			t.Errorf("entry %s homed at place %d, want %d", path, got, place)
		}
	}
	if err := cfs.CacheOutput(7, "/side/out-of-range", somePairs(1)); err == nil {
		t.Error("out-of-range place must be rejected")
	}
}

// TestCacheCoherenceDirectoriesWithSplits: Drop and Move of directories
// apply to nested split entries too — the §3.2.1 transparency on whole
// output trees, not just single files.
func TestCacheCoherenceDirectoriesWithSplits(t *testing.T) {
	c, _ := newTestCache(2)
	for i := 0; i < 2; i++ {
		path := fmt.Sprintf("/job/out/part-0000%d", i)
		writeOutput(t, c, i, path, 3)
		if err := c.PutSplit(i, fmt.Sprintf("%s:0+3", path), somePairs(3)); err != nil {
			t.Fatal(err)
		}
	}
	// Move the whole directory: file entries and nested split entries
	// follow.
	if err := c.Move("/job/out", "/job/renamed"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.LookupSplit("/job/out/part-00000:0+3", nil); ok {
		t.Error("split entry reachable under the old directory name")
	}
	if _, ok, _ := c.LookupSplit("/job/renamed/part-00000:0+3", nil); !ok {
		t.Error("split entry not moved with its directory")
	}
	checkPairs(t, c, "/job/renamed/part-00001", 3)
	// Drop the directory: everything nested goes, split entries included.
	if err := c.Drop("/job/renamed"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok, _ := c.PathPairs(fmt.Sprintf("/job/renamed/part-0000%d", i)); ok {
			t.Errorf("file entry %d survived the directory drop", i)
		}
		if _, ok, _ := c.LookupSplit(fmt.Sprintf("/job/renamed/part-0000%d:0+3", i), nil); ok {
			t.Errorf("split entry %d survived the directory drop", i)
		}
	}
}

// TestCacheRenameOntoExisting: Move onto an existing cache path fails with
// ErrExists and leaves both entries intact — rename is not an implicit
// overwrite in the cache any more than in HDFS.
func TestCacheRenameOntoExisting(t *testing.T) {
	c, _ := newTestCache(1)
	writeOutput(t, c, 0, "/x", 2)
	writeOutput(t, c, 0, "/y", 4)
	if err := c.Move("/x", "/y"); !errors.Is(err, dfs.ErrExists) {
		t.Fatalf("rename onto existing path: %v", err)
	}
	checkPairs(t, c, "/x", 2)
	checkPairs(t, c, "/y", 4)
}

// TestOutputWriterAbortRacingClose: Abort (a failing task's cleanup) racing
// Close (the success path) must settle to one of the two outcomes — the
// committed entry or no entry — never a torn one, and never corrupt the
// budget ledger.
func TestOutputWriterAbortRacingClose(t *testing.T) {
	for i := 0; i < 20; i++ {
		c, g, _ := newBudgetedCache(t, 1, 1<<20)
		w, err := c.NewOutputWriter(0, "/race", true)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range somePairs(5) {
			w.Append(p)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); w.Close() }()
		go func() { defer wg.Done(); w.Abort() }()
		wg.Wait()
		if pairs, ok, err := c.PathPairs("/race"); err != nil {
			t.Fatal(err)
		} else if ok && len(pairs) != 0 && len(pairs) != 5 {
			t.Fatalf("torn entry: %d pairs", len(pairs))
		}
		// Whatever won, a final Drop must drain the entry's reservation.
		if err := c.Drop("/race"); err != nil {
			t.Fatal(err)
		}
		if g.heldBytes() != 0 || g.residentBytes() != 0 {
			t.Fatalf("iteration %d: held=%d resident=%d after drop", i, g.heldBytes(), g.residentBytes())
		}
		c.Store().SetResidency(nil)
		g.close()
	}
}
