package m3r

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/kvstore"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/types"
)

// newBudgetedCache puts a cache's store under private per-place pools of
// budget bytes: on its own, the cache sees what a cap of budget within the
// engine's unlimited pool gives it. The store's spill directory is made
// under a private TMPDIR, where cacheSpillDir finds it.
func newBudgetedCache(t *testing.T, places int, budget int64) (*Cache, *kvstore.Store, *sim.Stats) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	c, rt := newTestCache(places)
	budgets := make([]*engine.JobBudget, places)
	for p := range budgets {
		budgets[p] = engine.NewBudgetPool(budget).Job(cacheTag, 0)
	}
	c.Store().SetBudget(budgets, spill.CodecNone)
	t.Cleanup(c.Store().DropBudget)
	return c, c.Store(), rt.Stats()
}

// cacheSpillDir returns the one cache spill directory under TMPDIR, "" when
// none was made.
func cacheSpillDir(t *testing.T) string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(os.TempDir(), "m3r-cache-*"))
	if err != nil || len(dirs) > 1 {
		t.Fatalf("cache spill directories: %v %v", dirs, err)
	}
	if len(dirs) == 0 {
		return ""
	}
	return dirs[0]
}

// entrySize measures the accounting size of an n-pair output entry by
// committing it under a generous budget and reading the resident gauge.
func entrySize(t *testing.T, n int) int64 {
	t.Helper()
	c, st, _ := newBudgetedCache(t, 1, 1<<30)
	writeOutput(t, c, 0, "/probe", n)
	if got := st.ResidentBytes(); got > 0 {
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
func ledgerQuiescent(t *testing.T, st *kvstore.Store) {
	t.Helper()
	if held, res := st.BudgetHeldBytes(), st.ResidentBytes(); held != res {
		t.Fatalf("ledger: held=%d resident=%d", held, res)
	}
}

// TestCacheBudgetOverflowSpillsAndServes: a commit the pool cannot admit
// goes to disk cold from birth, reads stay transparent, and a denied
// readmit leaves the entry spilled without corrupting the ledger.
func TestCacheBudgetOverflowSpillsAndServes(t *testing.T) {
	size := entrySize(t, 8)
	c, st, _ := newBudgetedCache(t, 1, size) // room for exactly one entry
	writeOutput(t, c, 0, "/a", 8)
	if st.ResidentBytes() != size || st.SpilledBlocks() != 0 {
		t.Fatalf("first entry should be resident: resident=%d spilled=%d", st.ResidentBytes(), st.SpilledBlocks())
	}
	// Same-size newcomer: largest-first has no strictly larger victim, so
	// the newcomer itself spills.
	writeOutput(t, c, 0, "/b", 8)
	if st.SpilledBlocks() != 1 {
		t.Fatalf("second entry should spill: spilled=%d", st.SpilledBlocks())
	}
	ledgerQuiescent(t, st)
	// The spilled entry reads transparently; the budget is full, so the
	// read must NOT readmit it.
	checkPairs(t, c, "/b", 8)
	if st.ReadmittedBlocks() != 0 {
		t.Fatalf("full budget must deny readmit, got %d", st.ReadmittedBlocks())
	}
	checkPairs(t, c, "/a", 8)
	ledgerQuiescent(t, st)
	// Dropping the resident entry frees budget; the next read of /b
	// promotes it back to memory.
	if err := c.Drop("/a"); err != nil {
		t.Fatal(err)
	}
	if st.ResidentBytes() != 0 || st.BudgetHeldBytes() != 0 {
		t.Fatalf("drop should drain: resident=%d held=%d", st.ResidentBytes(), st.BudgetHeldBytes())
	}
	checkPairs(t, c, "/b", 8)
	if st.ReadmittedBlocks() != 1 {
		t.Fatalf("read should readmit into freed budget, got %d", st.ReadmittedBlocks())
	}
	if st.ResidentBytes() != size {
		t.Fatalf("readmitted entry not accounted: %d", st.ResidentBytes())
	}
	ledgerQuiescent(t, st)
	if st.SpilledBlocks() != 1 || st.ReadmittedBlocks() != 1 {
		t.Fatalf("store totals: spilled=%d readmitted=%d", st.SpilledBlocks(), st.ReadmittedBlocks())
	}
}

// TestCacheBudgetEvictsLargestFirst: a smaller newcomer evicts a strictly
// larger cold resident instead of spilling itself.
func TestCacheBudgetEvictsLargestFirst(t *testing.T) {
	big := entrySize(t, 32)
	c, st, _ := newBudgetedCache(t, 1, big)
	writeOutput(t, c, 0, "/big", 32)
	writeOutput(t, c, 0, "/small", 4)
	if st.SpilledBlocks() != 1 {
		t.Fatalf("the big entry should have been evicted: spilled=%d", st.SpilledBlocks())
	}
	small := st.ResidentBytes()
	if small <= 0 || small >= big {
		t.Fatalf("the small newcomer should be resident: resident=%d big=%d", small, big)
	}
	ledgerQuiescent(t, st)
	// Both entries read back intact, evicted or not.
	checkPairs(t, c, "/big", 32)
	checkPairs(t, c, "/small", 4)
	ledgerQuiescent(t, st)
}

// TestCacheBudgetSplitEntries: input-split entries go through the same
// admission, spill on overflow, and survive byte-identically.
func TestCacheBudgetSplitEntries(t *testing.T) {
	c, st, _ := newBudgetedCache(t, 2, 1) // admits nothing
	if err := c.putSplit(1, splitPath("/data/f:0+100"), somePairs(6)); err != nil {
		t.Fatal(err)
	}
	if st.SpilledBlocks() != 1 || st.ResidentBytes() != 0 {
		t.Fatalf("split entry should spill under a full budget: spilled=%d resident=%d", st.SpilledBlocks(), st.ResidentBytes())
	}
	ranges, ok := c.lookupSplit(nil, splitPath("/data/f:0+100"), nil)
	if !ok {
		t.Fatal("lookup missed")
	}
	pairs, _, err := c.ReadRanges(1, ranges)
	if err != nil || len(pairs) != 6 {
		t.Fatalf("read spilled split: n=%d err=%v", len(pairs), err)
	}
	ledgerQuiescent(t, st)
}

// TestCacheBudgetDropDrains: dropping the store's budget returns every
// cache reservation and removes the spill directory.
func TestCacheBudgetDropDrains(t *testing.T) {
	size := entrySize(t, 8)
	t.Setenv("TMPDIR", t.TempDir())
	c, _ := newTestCache(1)
	pool := engine.NewBudgetPool(size)
	c.Store().SetBudget([]*engine.JobBudget{pool.Job(cacheTag, 0)}, spill.CodecNone)
	writeOutput(t, c, 0, "/a", 8)
	writeOutput(t, c, 0, "/b", 8) // spills, populating the spill dir
	dir := cacheSpillDir(t)
	if dir == "" {
		t.Fatal("spill dir not created")
	}
	c.Store().DropBudget()
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
	c, st, _ := newBudgetedCache(t, 1, 1) // everything spills
	writeOutput(t, c, 0, "/o/f", 5)
	if st.SpilledBlocks() != 1 {
		t.Fatalf("entry should have spilled: %d", st.SpilledBlocks())
	}
	// A miss is not an error.
	if _, ok, err := c.PathPairs("/no/such"); ok || err != nil {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}
	// Destroy the spilled image and read: the entry IS cached, the read
	// fails — the caller must see the failure, not a miss.
	dir := cacheSpillDir(t)
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
	c, _, _ := newBudgetedCache(t, 1, 1)
	rt := c.rt
	backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir(), Hosts: []string{"node0"}})
	if err != nil {
		t.Fatal(err)
	}
	cfs := NewCachingFileSystem(backing, c, rt)
	writeOutput(t, c, 0, "/o/f", 5)
	os.RemoveAll(cacheSpillDir(t))
	if _, ok, err := cfs.GetCacheRecordReader("/o/f"); err == nil {
		t.Fatalf("broken read must error, got ok=%v", ok)
	}
	if _, ok, err := cfs.GetCacheRecordReader("/absent"); ok || err != nil {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}
}

// TestUntaggedBlocksMapOntoPairRanges: a cache-only entry of several
// blocks written without tags maps a split's pair-index range onto its
// blocks by each block's own pair count, and so do its block locations.
func TestUntaggedBlocksMapOntoPairRanges(t *testing.T) {
	c, rt := newTestCache(2)
	const path = "/multi"
	var blocks []kvstore.BlockInfo
	for place, n := range []int{3, 5} {
		w, err := c.Store().CreateWriter(place, path, "")
		if err != nil {
			t.Fatal(err)
		}
		w.AppendAll(somePairs(n))
		b, err := w.Close()
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	if err := c.Store().SetAttr(path, attrCacheOnly, "1"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		start, length int64
		want          []CachedRange
		keys          []int32
	}{
		{0, 8, []CachedRange{{path, blocks[0], 0, 3}, {path, blocks[1], 0, 5}}, []int32{0, 1, 2, 0, 1, 2, 3, 4}},
		{2, 4, []CachedRange{{path, blocks[0], 2, 3}, {path, blocks[1], 0, 3}}, []int32{2, 0, 1, 2}},
		{4, 4, []CachedRange{{path, blocks[1], 1, 5}}, []int32{1, 2, 3, 4}},
	} {
		name := fmt.Sprintf("%s:%d+%d", path, tc.start, tc.length)
		ranges, ok := c.lookupSplit(nil, splitPath(name), &fileSplitView{path: path, start: tc.start, length: tc.length})
		if !ok || !slices.Equal(ranges, tc.want) {
			t.Fatalf("%s: ranges %+v ok=%v, want %+v", name, ranges, ok, tc.want)
		}
		pairs, _, err := c.ReadRanges(0, ranges)
		if err != nil || len(pairs) != len(tc.keys) {
			t.Fatalf("%s: read %d pairs, err %v; want %d", name, len(pairs), err, len(tc.keys))
		}
		for i, p := range pairs {
			if k := p.Key.(*types.IntWritable).Get(); k != tc.keys[i] {
				t.Fatalf("%s: pair %d has key %d, want %d", name, i, k, tc.keys[i])
			}
		}
	}
	host := func(place int) []string { return []string{rt.Place(place).Host()} }
	raw := &rawCacheFS{cache: c}
	for _, tc := range []struct {
		start, length int64
		want          []dfs.BlockLocation
	}{
		{0, 8, []dfs.BlockLocation{{Offset: 0, Length: 3, Hosts: host(0)}, {Offset: 3, Length: 5, Hosts: host(1)}}},
		{4, 1, []dfs.BlockLocation{{Offset: 3, Length: 5, Hosts: host(1)}}},
	} {
		locs, err := raw.BlockLocations(path, tc.start, tc.length)
		if err != nil || !reflect.DeepEqual(locs, tc.want) {
			t.Fatalf("locations of [%d, +%d): %+v err=%v, want %+v", tc.start, tc.length, locs, err, tc.want)
		}
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
		if err := c.putSplit(i, splitPath(fmt.Sprintf("%s:0+3", path)), somePairs(3)); err != nil {
			t.Fatal(err)
		}
	}
	// Move the whole directory: file entries and nested split entries
	// follow.
	if err := c.Move("/job/out", "/job/renamed"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.lookupSplit(nil, splitPath("/job/out/part-00000:0+3"), nil); ok {
		t.Error("split entry reachable under the old directory name")
	}
	if _, ok := c.lookupSplit(nil, splitPath("/job/renamed/part-00000:0+3"), nil); !ok {
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
		if _, ok := c.lookupSplit(nil, splitPath(fmt.Sprintf("/job/renamed/part-0000%d:0+3", i)), nil); ok {
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
		c, st, _ := newBudgetedCache(t, 1, 1<<20)
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
		if st.BudgetHeldBytes() != 0 || st.ResidentBytes() != 0 {
			t.Fatalf("iteration %d: held=%d resident=%d after drop", i, st.BudgetHeldBytes(), st.ResidentBytes())
		}
		st.DropBudget()
	}
}
