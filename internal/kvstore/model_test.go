package kvstore_test

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"m3r/internal/dfs"
	"m3r/internal/kvstore"
	"m3r/internal/m3r"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// The model test drives the store with generated operation scripts and
// checks every result — value, error class, pair list — against a plain
// map. It runs each script on two stores: the bare kvstore.New store and
// the store of an M3R engine whose cache budget is only a few blocks wide,
// where blocks spill, are evicted and readmit while the script runs; reads
// must not tell the two tiers apart. After every step the store's tree is
// checked — every entry but the root under a directory, every stored block
// in exactly one path's block list — and the cache ledger must balance.
//
// Scripts write and rename under missing parents: the store makes them, and
// so does the model.

const modelPlaces = 4

// modelPair is a block pair as plain data: key IntWritable, value Text.
type modelPair struct {
	k int32
	v string
}

type modelNode struct {
	dir    bool
	blocks []kvstore.BlockInfo
	pairs  int64
	attrs  map[string]string
}

// model is the reference: path → node, plus every live block's pairs.
type model struct {
	nodes map[string]*modelNode
	data  map[kvstore.BlockInfo][]modelPair
}

func newModel() *model {
	return &model{
		nodes: map[string]*modelNode{"/": {dir: true}},
		data:  make(map[kvstore.BlockInfo][]modelPair),
	}
}

// Error classes a result is compared by.
const (
	classNil      = "nil"
	classNotFound = "not-found"
	classExists   = "exists"
	classOther    = "other"
)

func errClass(err error) string {
	switch {
	case err == nil:
		return classNil
	case errors.Is(err, dfs.ErrNotFound):
		return classNotFound
	case errors.Is(err, dfs.ErrExists):
		return classExists
	}
	return classOther
}

// under reports whether p is a strict descendant of dir.
func under(dir, p string) bool {
	if dir == "/" {
		return p != "/"
	}
	return strings.HasPrefix(p, dir+"/")
}

func (m *model) mkdirs(p string) string {
	for _, a := range dfs.Ancestors(p) {
		n, ok := m.nodes[a]
		if !ok {
			m.nodes[a] = &modelNode{dir: true}
		} else if !n.dir {
			return classOther
		}
	}
	return classNil
}

// createWriter is CreateWriter's half: the path exists as a file from here,
// under its parents.
func (m *model) createWriter(p string) string {
	n, ok := m.nodes[p]
	if ok && n.dir {
		return classOther
	}
	if !ok {
		if c := m.mkdirs(dfs.Parent(p)); c != classNil {
			return c
		}
		m.nodes[p] = &modelNode{}
	}
	return classNil
}

func (m *model) commit(p string, info kvstore.BlockInfo, pairs []modelPair) {
	n := m.nodes[p]
	n.blocks = append(n.blocks, info)
	n.pairs += int64(len(pairs))
	m.data[info] = pairs
}

func (m *model) drop(p string) {
	for _, b := range m.nodes[p].blocks {
		delete(m.data, b)
	}
	delete(m.nodes, p)
}

func (m *model) delete(p string) string {
	if p == "/" {
		return classOther
	}
	n, ok := m.nodes[p]
	if !ok {
		return classNil
	}
	if n.dir {
		for q := range m.nodes {
			if under(p, q) {
				m.drop(q)
			}
		}
	}
	m.drop(p)
	return classNil
}

func (m *model) rename(src, dst string) string {
	if src == dst {
		return classNil
	}
	if dfs.IsAncestor(src, dst) {
		return classOther
	}
	n, ok := m.nodes[src]
	if !ok {
		return classNil
	}
	if _, ok := m.nodes[dst]; ok {
		return classExists
	}
	if c := m.mkdirs(dfs.Parent(dst)); c != classNil {
		return c
	}
	if n.dir {
		for q, qn := range m.nodes {
			if under(src, q) {
				delete(m.nodes, q)
				m.nodes[dst+q[len(src):]] = qn
			}
		}
	}
	delete(m.nodes, src)
	m.nodes[dst] = n
	return classNil
}

func (m *model) setAttr(p, k, v string) string {
	n, ok := m.nodes[p]
	if !ok {
		return classNotFound
	}
	if n.attrs == nil {
		n.attrs = make(map[string]string)
	}
	n.attrs[k] = v
	return classNil
}

func (m *model) children(dir string) []string {
	var out []string
	for q := range m.nodes {
		if under(dir, q) && dfs.Parent(q) == dir {
			out = append(out, q)
		}
	}
	sort.Strings(out)
	return out
}

// script is an operation source: intn returns a choice in [0, n) and false
// once the script is exhausted.
type script interface {
	intn(n int) (int, bool)
}

type randScript struct{ r *rand.Rand }

func (s randScript) intn(n int) (int, bool) { return s.r.Intn(n), true }

// byteScript turns fuzz bytes into choices, one byte each.
type byteScript struct{ b []byte }

func (s *byteScript) intn(n int) (int, bool) {
	if len(s.b) == 0 {
		return 0, false
	}
	c := int(s.b[0]) % n
	s.b = s.b[1:]
	return c, true
}

// harness runs one script against a store and its model. A concurrent
// leg's harness owns only the paths mine accepts: names under its bases,
// plus the ancestors it shares with the other goroutines.
type harness struct {
	t      testing.TB
	s      *kvstore.Store
	m      *model
	sc     script
	bases  []pathBase
	mine   func(string) bool
	ledger func() error  // the tree and cache ledger checks, nil on a worker
	keys   *atomic.Int32 // pair keys handed out, across a store's harnesses
	what   string
	worker bool // runs on a goroutine of its own
}

// pathBase is where generated paths start: dir, then a first component
// from first, then up to two more from "a", "b", "c".
type pathBase struct {
	dir   string
	first []string
}

var plainBase = pathBase{dir: "/", first: []string{"a", "b", "c"}}

// fail reports a mismatch and stops the harness: the test, or a concurrent
// leg's worker goroutine, which may not call FailNow.
func (h *harness) fail(format string, args ...any) {
	h.t.Helper()
	if !h.worker {
		h.t.Fatalf("%s: %s", h.what, fmt.Sprintf(format, args...))
	}
	h.t.Errorf("%s: %s", h.what, fmt.Sprintf(format, args...))
	runtime.Goexit()
}

// path draws a path at most three components below its base.
func (h *harness) path() (string, bool) {
	bi, ok := h.sc.intn(len(h.bases))
	if !ok {
		return "", false
	}
	b := h.bases[bi]
	depth, ok := h.sc.intn(3)
	if !ok {
		return "", false
	}
	c, ok := h.sc.intn(len(b.first))
	if !ok {
		return "", false
	}
	p := dfs.Join(b.dir, b.first[c])
	for range depth {
		c, ok := h.sc.intn(3)
		if !ok {
			return "", false
		}
		p = dfs.Join(p, string(rune('a'+c)))
	}
	return p, true
}

func (h *harness) nextPairs(n int) ([]wio.Pair, []modelPair) {
	k0 := h.keys.Add(int32(n)) - int32(n)
	ps := make([]wio.Pair, n)
	mp := make([]modelPair, n)
	for i := range n {
		k := k0 + int32(i)
		v := fmt.Sprintf("v%d", k)
		ps[i] = wio.Pair{Key: types.NewInt(k), Value: types.NewText(v)}
		mp[i] = modelPair{k, v}
	}
	return ps, mp
}

func (h *harness) expectClass(op string, err error, want string) {
	h.t.Helper()
	if got := errClass(err); got != want {
		h.fail("%s: error %v (class %s), model says %s", op, err, got, want)
	}
}

// run plays the script to its end or for steps operations.
func (h *harness) run(steps int) {
	h.t.Helper()
	for i := 0; i < steps; i++ {
		if !h.step() {
			return
		}
		if h.ledger != nil {
			if err := h.ledger(); err != nil {
				h.fail("step %d: %v", i, err)
			}
		}
	}
}

// step applies one generated operation; false once the script ran out.
func (h *harness) step() bool {
	h.t.Helper()
	// Writes are a third of the script, so the tree keeps files while
	// deletes and renames move and prune it.
	op, ok := h.sc.intn(13)
	if !ok {
		return false
	}
	p, ok := h.path()
	if !ok {
		return false
	}
	switch op {
	case 0:
		h.expectClass("mkdirs "+p, h.s.Mkdirs(p), h.m.mkdirs(p))
	case 1, 2, 3, 4:
		place, ok1 := h.sc.intn(modelPlaces)
		n, ok2 := h.sc.intn(7)
		if !ok1 || !ok2 {
			return false
		}
		h.write(place, p, n)
	case 5:
		h.checkInfo(p)
	case 6:
		var got kvstore.PathInfo
		ok := h.s.ViewInfo(p, func(v kvstore.PathInfo) {
			got = v
			got.Blocks = slices.Clone(v.Blocks)
			got.Attrs = maps.Clone(v.Attrs)
		})
		h.compareInfo("viewinfo", p, got, ok)
	case 7:
		if got, want := h.s.Exists(p), h.m.nodes[p] != nil; got != want {
			h.fail("exists %s: %v, model says %v", p, got, want)
		}
		h.checkChildren(dfs.Parent(p))
		h.checkChildren(p)
	case 8:
		k, ok := h.sc.intn(2)
		if !ok {
			return false
		}
		key, val := fmt.Sprintf("k%d", k), fmt.Sprintf("x%d", len(p))
		h.expectClass("setattr "+p, h.s.SetAttr(p, key, val), h.m.setAttr(p, key, val))
	case 9:
		h.expectClass("delete "+p, h.s.Delete(p), h.m.delete(p))
		h.checkInfo(p)
	case 10, 11:
		dst, ok := h.path()
		if !ok {
			return false
		}
		if into, ok := h.sc.intn(4); !ok {
			return false
		} else if into == 0 {
			dst = dfs.Join(p, "z") // into its own subtree
		}
		h.rename(p, dst)
	case 12:
		h.readAll()
	}
	return true
}

// write writes one block of n pairs to p at place.
func (h *harness) write(place int, p string, n int) {
	h.t.Helper()
	w, err := h.s.CreateWriter(place, p, "")
	want := h.m.createWriter(p)
	h.expectClass("createWriter "+p, err, want)
	if want != classNil {
		return
	}
	ps, mp := h.nextPairs(n)
	for _, pr := range ps {
		w.Append(pr)
	}
	info, err := w.Close()
	if err != nil {
		h.fail("close %s: %v", p, err)
	}
	if info.Place != place || info.Pairs != int64(n) || info.Tag != "" {
		h.fail("close %s: block %+v, want place %d, %d pairs, no tag", p, info, place, n)
	}
	h.m.commit(p, info, mp)
}

// rename renames src onto dst and compares both paths with the model.
func (h *harness) rename(src, dst string) {
	h.t.Helper()
	h.expectClass("rename "+src+" "+dst, h.s.Rename(src, dst), h.m.rename(src, dst))
	h.checkInfo(src)
	h.checkInfo(dst)
}

func (h *harness) checkInfo(p string) {
	h.t.Helper()
	got, ok := h.s.GetInfo(p)
	h.compareInfo("getinfo", p, got, ok)
}

func (h *harness) compareInfo(op, p string, got kvstore.PathInfo, ok bool) {
	h.t.Helper()
	n := h.m.nodes[p]
	if ok != (n != nil) {
		h.fail("%s %s: present %v, model says %v", op, p, ok, n != nil)
	}
	if n == nil {
		return
	}
	if got.Path != p || got.Dir != n.dir || got.Pairs != n.pairs || !slices.Equal(got.Blocks, n.blocks) {
		h.fail("%s %s: {dir %v pairs %d blocks %v}, model {dir %v pairs %d blocks %v}",
			op, p, got.Dir, got.Pairs, got.Blocks, n.dir, n.pairs, n.blocks)
	}
	if len(got.Attrs) != len(n.attrs) {
		h.fail("%s %s: attrs %v, model %v", op, p, got.Attrs, n.attrs)
	}
	for k, v := range n.attrs {
		if got.Attrs[k] != v {
			h.fail("%s %s: attrs %v, model %v", op, p, got.Attrs, n.attrs)
		}
	}
}

func (h *harness) checkChildren(dir string) {
	h.t.Helper()
	var got []string
	for _, c := range h.s.Children(dir) {
		if h.mine == nil || h.mine(c) {
			got = append(got, c)
		}
	}
	if want := h.m.children(dir); !slices.Equal(got, want) {
		h.fail("children %s: %v, model %v", dir, got, want)
	}
}

// readAll reads every block of every file from every place.
func (h *harness) readAll() {
	h.t.Helper()
	paths := make([]string, 0, len(h.m.nodes))
	for p, n := range h.m.nodes {
		if !n.dir {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		for _, b := range h.m.nodes[p].blocks {
			for place := range modelPlaces {
				h.read(place, p, b)
			}
		}
	}
}

func (h *harness) read(place int, p string, b kvstore.BlockInfo) {
	h.t.Helper()
	r, err := h.s.CreateReader(place, p, b)
	if err != nil {
		h.fail("read %s %+v at %d: %v", p, b, place, err)
	}
	if r.Remote != (place != b.Place) {
		h.fail("read %s %+v at %d: remote %v", p, b, place, r.Remote)
	}
	want := h.m.data[b]
	got := r.Pairs()
	if len(got) != len(want) {
		h.fail("read %s %+v at %d: %d pairs, model %d", p, b, place, len(got), len(want))
	}
	for i, pr := range got {
		k, kok := pr.Key.(*types.IntWritable)
		v, vok := pr.Value.(*types.Text)
		if !kok || !vok || k.Get() != want[i].k || v.String() != want[i].v {
			h.fail("read %s %+v at %d: pair %d is (%v, %v), model (%d, %s)", p, b, place, i, pr.Key, pr.Value, want[i].k, want[i].v)
		}
	}
}

// modelStore is one of the two stores a script runs on. Its ledger checks
// the store's tree and, under a budget, that the pool holds what is
// resident; it holds only at quiescence.
type modelStore struct {
	name   string
	s      *kvstore.Store
	e      *m3r.Engine // nil for the bare store
	ledger func() error
}

// modelStores returns the bare store and the store of an M3R engine with a
// cache budget of a few blocks per place and no shuffle pool. The engine
// closes with the test.
func modelStores(t testing.TB) []modelStore {
	t.Helper()
	bare, _ := newStore(modelPlaces)
	backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// A block of n pairs is about 12n bytes in the record format, so the
	// budget holds two to four of the 0–6-pair blocks a script writes.
	e, err := m3r.New(m3r.Options{Backing: backing, Places: modelPlaces, ShuffleBudgetBytes: -1, CacheBudgetBytes: 160})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	cached := e.Cache().Store()
	ledger := func() error {
		if held, res := cached.BudgetHeldBytes(), cached.ResidentBytes(); held != res {
			return fmt.Errorf("cache ledger: pool holds %d bytes, %d resident", held, res)
		}
		return cached.CheckTree()
	}
	return []modelStore{
		{name: "bare", s: bare, ledger: bare.CheckTree},
		{name: "budgeted", s: cached, e: e, ledger: ledger},
	}
}

func newHarness(t testing.TB, ms modelStore, sc script) *harness {
	return &harness{
		t: t, s: ms.s, m: newModel(), sc: sc, bases: []pathBase{plainBase},
		ledger: ms.ledger, keys: new(atomic.Int32), what: ms.name,
	}
}

// TestStoreModelSequential: seeded scripts on both stores, every result
// against the model, then every block read from every place. Each budgeted
// script must reach the spilled tier and come back from it, so reads of both
// tiers are compared.
func TestStoreModelSequential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		for _, ms := range modelStores(t) {
			h := newHarness(t, ms, randScript{rand.New(rand.NewSource(seed))})
			h.what = fmt.Sprintf("%s seed %d", ms.name, seed)
			h.run(1000)
			h.readAll()
			if n := ms.s.HeldLocks(); n != 0 {
				t.Fatalf("%s: %d entry locks held after the script", h.what, n)
			}
			if ms.e != nil && (ms.s.SpilledBlocks() == 0 || ms.s.ReadmittedBlocks() == 0) {
				t.Fatalf("%s: %d blocks spilled, %d readmitted; want both > 0",
					h.what, ms.s.SpilledBlocks(), ms.s.ReadmittedBlocks())
			}
		}
	}
}

// TestStoreModelConcurrent: goroutines on one store, each in its own
// subtree and with its own file names in one shared directory, each
// checking its own results against its own model. At the end the store is
// the union of the models, no entry lock is held, and once everything is
// deleted the cache holds nothing: no reservation, no resident byte, no
// spilled file.
func TestStoreModelConcurrent(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		workers := 2 + rng.Intn(15)
		for _, ms := range modelStores(t) {
			what := fmt.Sprintf("%s seed %d, %d goroutines", ms.name, seed, workers)
			if err := ms.s.Mkdirs("/shared"); err != nil {
				t.Fatal(err)
			}
			keys := new(atomic.Int32)
			hs := make([]*harness, workers)
			for g := range hs {
				name := fmt.Sprintf("g%d", g)
				own, prefix := "/"+name, "/shared/"+name+"_"
				m := newModel()
				m.nodes["/shared"] = &modelNode{dir: true}
				hs[g] = &harness{
					t: t, s: ms.s, m: m, keys: keys,
					sc: randScript{rand.New(rand.NewSource(seed*100 + int64(g)))},
					bases: []pathBase{
						{dir: "/", first: []string{name}},
						{dir: "/shared", first: []string{name + "_a", name + "_b", name + "_c"}},
					},
					mine: func(p string) bool {
						return p == "/" || p == "/shared" || p == own || under(own, p) || strings.HasPrefix(p, prefix)
					},
					what: fmt.Sprintf("%s, goroutine %d", what, g),
				}
			}
			var wg sync.WaitGroup
			for _, h := range hs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					h.worker = true
					h.run(250)
					h.readAll()
					h.worker = false
				}()
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			if n := ms.s.HeldLocks(); n != 0 {
				t.Fatalf("%s: %d entry locks held", what, n)
			}
			checkUnion(t, what, ms.s, hs)
			if err := ms.ledger(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			for _, c := range ms.s.Children("/") {
				if err := ms.s.Delete(c); err != nil {
					t.Fatalf("%s: delete %s: %v", what, c, err)
				}
			}
			if err := ms.ledger(); err != nil {
				t.Fatalf("%s: after deleting everything: %v", what, err)
			}
			if held, res := ms.s.BudgetHeldBytes(), ms.s.ResidentBytes(); held != 0 || res != 0 {
				t.Fatalf("%s: after deleting everything the pool holds %d bytes, %d resident", what, held, res)
			}
		}
	}
	var files []string
	filepath.WalkDir(tmp, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, p)
		}
		return nil
	})
	if len(files) > 0 {
		t.Fatalf("cache spill directory keeps %d files after every entry was deleted: %v", len(files), files)
	}
}

// checkUnion compares the whole store, walked from the root, with the
// union of the goroutines' models, and reads every block from every place.
func checkUnion(t *testing.T, what string, s *kvstore.Store, hs []*harness) {
	t.Helper()
	owner := map[string]*harness{}
	for _, h := range hs {
		for p := range h.m.nodes {
			if p != "/" && p != "/shared" {
				owner[p] = h
			}
		}
	}
	var walk func(dir string)
	seen := 0
	walk = func(dir string) {
		for _, c := range s.Children(dir) {
			if c != "/shared" {
				h := owner[c]
				if h == nil {
					t.Fatalf("%s: %s is in the store but in no model", what, c)
				}
				seen++
				h.checkInfo(c)
			}
			walk(c)
		}
	}
	walk("/")
	if seen != len(owner) {
		t.Fatalf("%s: the store holds %d paths, the models %d", what, seen, len(owner))
	}
	for _, h := range hs {
		h.readAll()
	}
}

// FuzzStoreModel: arbitrary bytes as an operation script for the
// sequential leg, on both stores.
func FuzzStoreModel(f *testing.F) {
	for _, seed := range []string{
		"\x01\x00\x00\x01\x02\x03\x09\x00\x00\x00",
		"\x00\x02\x01\x02\x08\x00\x00\x00\x00\x00\x01\x00\x00\x07\x00\x00\x00\x09\x00\x00\x00",
		"\x01\x00\x01\x00\x00\x06\x01\x00\x02\x00\x00\x06\x01\x00\x01\x02\x00\x05\x09\x00\x00\x00\x0a\x00\x00\x00",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, ms := range modelStores(t) {
			h := newHarness(t, ms, &byteScript{b: b})
			h.run(len(b))
			h.readAll()
			if n := ms.s.HeldLocks(); n != 0 {
				t.Fatalf("%s: %d entry locks held after the script", ms.name, n)
			}
		}
	})
}
