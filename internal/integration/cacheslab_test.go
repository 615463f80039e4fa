package integration_test

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/lab"
	"m3r/internal/microbench"
	"m3r/internal/sysml"
	"m3r/internal/wio"
)

// budgetedEngine submits every job under a shuffle budget of its own, so
// that its shuffle is serialized and its reduce is the raw merge.
type budgetedEngine struct {
	engine.Engine
	budget int64
}

func (e budgetedEngine) Submit(job *conf.JobConf) (*engine.Report, error) {
	job.SetInt64(conf.KeyM3RShuffleBudget, e.budget)
	return e.Engine.Submit(job)
}

// transientSlabs records where every slab of objects that die with a job
// lies, as wio starts it; keeping the pointers keeps the slabs alive, so no
// later allocation can take their addresses.
type transientSlabs struct {
	mu    sync.Mutex
	slabs []struct {
		base unsafe.Pointer
		size uintptr
	}
}

func (s *transientSlabs) note(base unsafe.Pointer, size uintptr) {
	s.mu.Lock()
	s.slabs = append(s.slabs, struct {
		base unsafe.Pointer
		size uintptr
	}{base, size})
	s.mu.Unlock()
}

// holds reports whether p lies in one of the slabs.
func (s *transientSlabs) holds(p unsafe.Pointer) bool {
	for _, sl := range s.slabs {
		if uintptr(p) >= uintptr(sl.base) && uintptr(p) < uintptr(sl.base)+sl.size {
			return true
		}
	}
	return false
}

// memoryOf calls f with every heap address v reaches through pointers and
// slices — the objects and the bodies behind them.
func memoryOf(v reflect.Value, f func(unsafe.Pointer)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			f(v.UnsafePointer())
			memoryOf(v.Elem(), f)
		}
	case reflect.Interface:
		memoryOf(v.Elem(), f)
	case reflect.Struct:
		for i := range v.NumField() {
			memoryOf(v.Field(i), f)
		}
	case reflect.Slice:
		if v.Cap() > 0 {
			f(v.UnsafePointer())
		}
		for i := range v.Len() {
			memoryOf(v.Index(i), f)
		}
	}
}

// TestCachedObjectsShareNoTransientSlab: no object the cache keeps, nor any
// body behind one, lies in a slab that objects dying with a job come from —
// keeping it would keep its transient slab-mates alive as long as the cache
// entry. The jobs make transient objects at every site that does: a
// PageRank without ImmutableOutput clones its map output and decodes its
// short arrivals from the shared slabs. What the cache keeps comes from
// every site that feeds it: the cold fill of G and p0, the sinks' clones
// (a map-only scale's, of 20 or so blocks, in slabs of their own, which
// the test finds as slab-mates), and the arrivals, as objects and through
// the raw merge, of a shuffle whose ImmutableOutput reducer hands its input
// objects to the cache as they are; and, on a second cluster whose cache
// budget is tight, the blocks it spills and readmits.
func TestCachedObjectsShareNoTransientSlab(t *testing.T) {
	var slabs transientSlabs
	wio.SetTransientSlabHook(slabs.note)
	defer wio.SetTransientSlabHook(nil)
	// Two collections empty the pool of shared slabs, so every shared slab
	// the jobs take objects from is started under the hook.
	runtime.GC()
	runtime.GC()

	pr := sysml.PageRankConfig{Nodes: 120, BlockSize: 30, Sparsity: 0.1, Iterations: 3, Seed: 23}
	c := newCluster(t, lab.Options{Nodes: 3, ShuffleBudgetBytes: -1})
	if _, err := sysml.PageRank(newDriver(t, c.M3R, "/pr", 3), pr); err != nil {
		t.Fatalf("pagerank: %v", err)
	}
	// PageRank's map-only scale over a G of 8×8 blocks: each sink clones a
	// split's 20 or so blocks, enough for slabs of their own, into an
	// output that stays.
	wd := newDriver(t, c.M3R, "/pr-wide", 3)
	G, _, err := sysml.WritePageRankInputs(wd, sysml.PageRankConfig{Nodes: 240, BlockSize: 30, Sparsity: 0.1, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wd.Scale(G, 0.85, 0.01, "/pr-wide/scaled"); err != nil {
		t.Fatalf("scale: %v", err)
	}
	for _, run := range []struct {
		eng engine.Engine
		dir string
	}{{c.M3R, "/mb/objects"}, {budgetedEngine{c.M3R, 1 << 20}, "/mb/bytes"}} {
		cfg := microbench.Config{Pairs: 200, ValueBytes: 64, Percent: 100, Iterations: 2, Partitions: 3, Dir: run.dir, Seed: 3}
		if err := microbench.Generate(c.FS, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := microbench.Run(run.eng, cfg); err != nil {
			t.Fatalf("%s: %v", run.dir, err)
		}
	}
	tight := newCluster(t, lab.Options{Nodes: 3, ShuffleBudgetBytes: -1, CacheBudgetBytes: 6 << 10})
	if _, err := sysml.PageRank(newDriver(t, tight.M3R, "/pr", 3), pr); err != nil {
		t.Fatalf("pagerank under a tight cache budget: %v", err)
	}

	objects, slabbed := 0, 0
	for _, c := range []*lab.Cluster{c, tight} {
		cfs := c.M3R.CachingFS()
		files, err := dfs.ListRecursive(cfs.GetRawCache(), "/")
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			pairs, ok, err := cfs.Cache().PathPairs(f.Path)
			if err != nil || !ok {
				t.Fatalf("%s: cached %v, %v", f.Path, ok, err)
			}
			if c != tight && strings.HasPrefix(f.Path, "/pr-wide/scaled/") && slabMates(pairs) {
				slabbed++
			}
			for i, p := range pairs {
				for _, w := range []wio.Writable{p.Key, p.Value} {
					objects++
					memoryOf(reflect.ValueOf(w), func(m unsafe.Pointer) {
						if slabs.holds(m) {
							t.Fatalf("%s pair %d: the cache keeps %T memory at %p in a transient slab", f.Path, i, w, m)
						}
					})
				}
			}
		}
	}
	if slabbed == 0 {
		t.Errorf("no unmarked PageRank output holds blocks from a slab: the test reads no clone of the sink's slabs")
	}
	if n := tight.M3R.Cache().Store().ReadmittedBlocks(); n == 0 {
		t.Errorf("no spilled block was readmitted: the test reads no readmitted object")
	}
	t.Logf("%d cached objects, %d transient slabs, %d unmarked outputs slabbed", objects, len(slabs.slabs), slabbed)
	if objects < 1000 || len(slabs.slabs) == 0 {
		t.Fatalf("%d cached objects and %d transient slabs: the jobs did not exercise both sides", objects, len(slabs.slabs))
	}
}

// slabMates reports whether the first eight values of pairs, all Blocks,
// lie next to each other in memory: one slab's, as a cloning sink of eight
// pairs or more takes them.
func slabMates(pairs []wio.Pair) bool {
	if len(pairs) < 8 {
		return false
	}
	for i := range 8 {
		b, ok := pairs[i].Value.(*sysml.Block)
		if !ok {
			return false
		}
		if i > 0 && uintptr(unsafe.Pointer(b)) != uintptr(unsafe.Pointer(pairs[i-1].Value.(*sysml.Block)))+unsafe.Sizeof(*b) {
			return false
		}
	}
	return true
}
