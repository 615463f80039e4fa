package m3r

import (
	"errors"
	"math"
	"strings"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/sim"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
	"m3r/internal/x10"
)

func newTestCache(places int) (*Cache, *x10.Runtime) {
	rt := x10.NewRuntime(x10.Options{Places: places, Stats: sim.NewStats(), Cost: sim.Zero()})
	return NewCache(rt), rt
}

func somePairs(n int) []wio.Pair {
	out := make([]wio.Pair, n)
	for i := range out {
		out[i] = wio.Pair{Key: types.NewInt(int32(i)), Value: types.NewText("v")}
	}
	return out
}

func TestSplitCacheHitAndMiss(t *testing.T) {
	c, _ := newTestCache(2)
	name := "/data/f:0+100"
	if _, ok, _ := c.LookupSplit(name, nil); ok {
		t.Fatal("empty cache should miss")
	}
	if err := c.PutSplit(1, name, somePairs(5)); err != nil {
		t.Fatal(err)
	}
	ranges, ok, _ := c.LookupSplit(name, nil)
	if !ok || len(ranges) != 1 || ranges[0].Block.Place != 1 {
		t.Fatalf("lookup: %+v ok=%v", ranges, ok)
	}
	pairs, remote, err := c.ReadRanges(1, ranges)
	if err != nil || remote || len(pairs) != 5 {
		t.Fatalf("read: n=%d remote=%v err=%v", len(pairs), remote, err)
	}
	// Different split of the same file is still a miss.
	if _, ok, _ := c.LookupSplit("/data/f:100+50", nil); ok {
		t.Error("different range must miss")
	}
	// Reading from another place is remote.
	_, remote, err = c.ReadRanges(0, ranges)
	if err != nil || !remote {
		t.Errorf("cross-place read should be remote: %v", err)
	}
}

func TestOutputCacheWholeFileLookup(t *testing.T) {
	c, _ := newTestCache(2)
	w, err := c.NewOutputWriter(0, "/out/part-00000", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range somePairs(4) {
		w.Append(p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A whole-file split of a disk-backed file is served from cache.
	view := &fileSplitView{path: "/out/part-00000", start: 0, length: 999, wholeFile: true}
	ranges, ok, _ := c.LookupSplit("/out/part-00000:0+999", view)
	if !ok {
		t.Fatal("whole-file lookup should hit")
	}
	pairs, _, err := c.ReadRanges(0, ranges)
	if err != nil || len(pairs) != 4 {
		t.Fatalf("read: %d err=%v", len(pairs), err)
	}
	// A partial split of a disk-backed file cannot be served (byte
	// offsets don't map to pairs).
	view2 := &fileSplitView{path: "/out/part-00000", start: 10, length: 20}
	if _, ok, _ := c.LookupSplit("/out/part-00000:10+20", view2); ok {
		t.Error("partial split of disk-backed file must miss")
	}
}

func TestCacheOnlyPairSpaceRanges(t *testing.T) {
	c, _ := newTestCache(2)
	w, _ := c.NewOutputWriter(1, "/tmp/part-00000", true)
	for _, p := range somePairs(10) {
		w.Append(p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Cache-only files live in pair-index space: any sub-range resolves.
	view := &fileSplitView{path: "/tmp/part-00000", start: 3, length: 4}
	ranges, ok, _ := c.LookupSplit("/tmp/part-00000:3+4", view)
	if !ok {
		t.Fatal("pair-space range should hit")
	}
	pairs, _, err := c.ReadRanges(1, ranges)
	if err != nil || len(pairs) != 4 {
		t.Fatalf("range read: %d err=%v", len(pairs), err)
	}
	if pairs[0].Key.(*types.IntWritable).Get() != 3 {
		t.Errorf("range start: %v", pairs[0].Key)
	}
}

func TestCacheDropAndMove(t *testing.T) {
	c, _ := newTestCache(2)
	name := "/d/f:0+10"
	c.PutSplit(0, name, somePairs(2))
	w, _ := c.NewOutputWriter(0, "/d/f", false)
	w.Append(somePairs(1)[0])
	w.Close()

	if err := c.Move("/d/f", "/d/g"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.LookupSplit(name, nil); ok {
		t.Error("split entries should move with the file")
	}
	if _, ok, _ := c.LookupSplit("/d/g:0+10", nil); !ok {
		t.Error("split entries should be reachable under the new name")
	}
	if _, ok, _ := c.PathPairs("/d/g"); !ok {
		t.Error("output entry should move")
	}

	if err := c.Drop("/d/g"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.PathPairs("/d/g"); ok {
		t.Error("dropped entry still present")
	}
	if _, ok, _ := c.LookupSplit("/d/g:0+10", nil); ok {
		t.Error("dropped split entries still present")
	}
}

func TestCachingFileSystemUnion(t *testing.T) {
	rt := x10.NewRuntime(x10.Options{Places: 2, Stats: sim.NewStats(), Cost: sim.Zero()})
	backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir(), Hosts: []string{"node0", "node1"}})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(rt)
	cfs := NewCachingFileSystem(backing, cache, rt)

	// Disk file visible through the union.
	dfs.WriteFile(backing, "/disk/file", []byte("x"))
	if !cfs.Exists("/disk/file") {
		t.Error("disk file invisible")
	}
	// Cache-only file visible too, with pair-count size and block
	// locations at its place's host.
	w, _ := cache.NewOutputWriter(1, "/mem/part-00000", true)
	for _, p := range somePairs(6) {
		w.Append(p)
	}
	w.Close()
	if !cfs.Exists("/mem/part-00000") {
		t.Error("cache-only file invisible")
	}
	st, err := cfs.Stat("/mem/part-00000")
	if err != nil || st.Size != 6 {
		t.Errorf("stat: %+v err=%v", st, err)
	}
	locs, err := cfs.BlockLocations("/mem/part-00000", 0, 6)
	if err != nil || len(locs) != 1 || locs[0].Hosts[0] != "node1" {
		t.Errorf("locations: %+v err=%v", locs, err)
	}
	ls, err := cfs.List("/mem")
	if err != nil || len(ls) != 1 {
		t.Errorf("list: %+v err=%v", ls, err)
	}
	// Byte-level open of cache-only files is a descriptive error.
	if _, err := cfs.Open("/mem/part-00000"); err == nil {
		t.Error("cache-only open should fail")
	}
	// Deleting a cache-only path succeeds even though the backing store
	// never had it.
	if err := cfs.Delete("/mem/part-00000", false); err != nil {
		t.Errorf("cache-only delete: %v", err)
	}
	// Renaming a cache-only path likewise.
	w2, _ := cache.NewOutputWriter(0, "/mem/a", true)
	w2.Append(somePairs(1)[0])
	w2.Close()
	if err := cfs.Rename("/mem/a", "/mem/b"); err != nil {
		t.Errorf("cache-only rename: %v", err)
	}
	if !cfs.Exists("/mem/b") || cfs.Exists("/mem/a") {
		t.Error("cache-only rename result")
	}
}

// statCountingFS counts the Stat calls that reach the filesystem it wraps.
type statCountingFS struct {
	dfs.FileSystem
	stats int
}

func (f *statCountingFS) Stat(path string) (dfs.FileStatus, error) {
	f.stats++
	return f.FileSystem.Stat(path)
}

// TestCachingFileSystemStatAsksTheCacheFirst: a cache-only file is stat'ed
// from the cache without a call to the backing store; a file the backing
// store has reports its own status there even when the cache holds its
// pairs too; an unknown path is ErrNotFound. Every answer carries the
// canonical path.
func TestCachingFileSystemStatAsksTheCacheFirst(t *testing.T) {
	rt := x10.NewRuntime(x10.Options{Places: 2, Stats: sim.NewStats(), Cost: sim.Zero()})
	hdfs, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir(), Hosts: []string{"node0", "node1"}})
	if err != nil {
		t.Fatal(err)
	}
	backing := &statCountingFS{FileSystem: hdfs}
	cache := NewCache(rt)
	cfs := NewCachingFileSystem(backing, cache, rt)
	for path, temp := range map[string]bool{"/mem/part-00000": true, "/disk/part-00000": false} {
		w, err := cache.NewOutputWriter(1, path, temp)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range somePairs(6) {
			w.Append(p)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := dfs.WriteFile(hdfs, "/disk/part-00000", []byte("abc")); err != nil {
		t.Fatal(err)
	}

	st, err := cfs.Stat("/mem//./part-00000/")
	if err != nil || st.Size != 6 || st.Path != "/mem/part-00000" || backing.stats != 0 {
		t.Errorf("cache-only stat: %+v err=%v, %d backing Stat calls", st, err, backing.stats)
	}
	st, err = cfs.Stat("disk/part-00000")
	if err != nil || st.Size != 3 || st.Path != "/disk/part-00000" {
		t.Errorf("backed stat: %+v err=%v, want the backing store's 3 bytes", st, err)
	}
	if _, err := cfs.Stat("/nowhere"); !errors.Is(err, dfs.ErrNotFound) {
		t.Errorf("missing stat: err=%v, want ErrNotFound", err)
	}
}

func TestPlaceOfPartitionStability(t *testing.T) {
	backing, _ := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir()})
	e, err := New(Options{Backing: backing, Places: 3, Stats: sim.NewStats()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for q := 0; q < 12; q++ {
		if e.PlaceOfPartition(q) != q%3 {
			t.Fatalf("partition %d", q)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("missing backing fs should fail")
	}
}

// TestEngineBudgetDefaults: the engine-scoped keys reach New through
// conf.DefaultsEnv when the Options field is 0; a non-zero field wins
// (negative forces none); a default that is not an integer, or a malformed
// carrier, fails New with an error naming the key and the value.
func TestEngineBudgetDefaults(t *testing.T) {
	backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	env := conf.KeyM3REngineShuffleBudget + "=4096 " + conf.KeyM3RCacheBudget + "=8192"
	for _, tc := range []struct {
		name, env       string
		opt             int64
		wantPool        int64 // 0 = an unlimited pool
		wantCacheBudget bool
		wantErrNaming   []string
	}{
		{name: "bare", wantPool: 0},
		{name: "carrier", env: env, wantPool: 4096, wantCacheBudget: true},
		{name: "option beats carrier", env: env, opt: 1024, wantPool: 1024, wantCacheBudget: true},
		{name: "negative forces none", env: env, opt: -1},
		{name: "non-integer budget", env: conf.KeyM3REngineShuffleBudget + "=64k",
			wantErrNaming: []string{conf.KeyM3REngineShuffleBudget, `"64k"`}},
		{name: "non-integer cache budget", env: conf.KeyM3RCacheBudget + "=",
			wantErrNaming: []string{conf.KeyM3RCacheBudget, `""`}},
		{name: "malformed carrier", env: "M3R_CACHE_BUDGET_BYTES", wantErrNaming: []string{`"M3R_CACHE_BUDGET_BYTES"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv(conf.DefaultsEnv, tc.env)
			e, err := New(Options{Backing: backing, ShuffleBudgetBytes: tc.opt, CacheBudgetBytes: tc.opt})
			if tc.wantErrNaming != nil {
				if err == nil {
					e.Close()
					t.Fatalf("New succeeded under %s=%q", conf.DefaultsEnv, tc.env)
				}
				for _, want := range tc.wantErrNaming {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not name %s", err, want)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			pool := e.pools[0].Limit()
			if pool == math.MaxInt64 {
				pool = 0
			}
			if pool != tc.wantPool {
				t.Errorf("pool limit %d, want %d", pool, tc.wantPool)
			}
			if got := e.cache.store.Budgeted(); got != tc.wantCacheBudget {
				t.Errorf("cache budget present = %v, want %v", got, tc.wantCacheBudget)
			}
		})
	}
}

// TestCappedJobReservesInEnginePool: on an engine whose pool has no limit, a
// job with a positive per-job cap is budgeted within the engine's own pool,
// so what it reserves shows in ShufflePoolHeldBytes and its cleanup takes it
// back out.
func TestCappedJobReservesInEnginePool(t *testing.T) {
	backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Options{Backing: backing, Places: 2, ShuffleBudgetBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	job := wordcount.NewJob("/data/in", "/out/capped", 2, true)
	job.SetInt64(conf.KeyM3RShuffleBudget, 4096)
	j, err := e.host.Open(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Lifecycle.Stop()
	x, err := e.newJobExec(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.budgets) != 2 {
		t.Fatalf("a capped job has %d place budgets, want 2", len(x.budgets))
	}
	if !x.budgets[0].Reserve(1) {
		t.Fatal("one byte did not fit a 4096-byte cap")
	}
	if held := e.ShufflePoolHeldBytes(); held != 1 {
		t.Errorf("ShufflePoolHeldBytes = %d after a one-byte reservation, want 1", held)
	}
	x.cleanup()
	if held := e.ShufflePoolHeldBytes(); held != 0 {
		t.Errorf("ShufflePoolHeldBytes = %d after cleanup, want 0", held)
	}
}
