// Package kvstore implements the distributed in-memory key/value store that
// backs M3R's input/output cache (paper §5.2, Fig. 5). It exposes a
// filesystem-like API — createWriter, createReader, delete, rename,
// getInfo, mkdirs — whose operations are atomic (serializable) with respect
// to each other.
//
// Both metadata and data are distributed across the runtime's places:
// metadata is statically partitioned by hashing the path; data blocks live
// wherever createWriter was invoked, recorded in their BlockInfo. Reading a
// block at its home place aliases the stored pairs with no serialization;
// reading it from another place pays a real serialize/ship/deserialize
// round trip through the x10 transport.
//
// The namespace is a tree: every entry but the root has a directory entry
// as its parent. The store keeps it so itself, as HDFS does, by making the
// missing parents of a path it writes or renames onto; a file never has
// children.
//
// Locking follows the paper's protocol: each table entry is swapped for a
// lock entry on acquisition — a flag, so a lock allocates nothing —
// upgraded to a heavier-weight monitor (here: the table's condition
// variable) only when a second acquirer arrives. Read-only and removing
// single-path operations take their one entry lock, and so does a block's
// commit to an entry that exists; a write that makes its entry holds its
// parent's lock too, so the parent cannot go while the entry is made.
// Multi-path operations (Rename, and Mkdirs down its ancestors) use
// two-phase locking and acquire the least common ancestor of the involved
// paths first, then the rest in lexicographic order, in which an ancestor
// precedes its descendants; with that total order deadlock is impossible.
//
// A store may take a cache budget (SetBudget): per place, a reservation
// view on the place's engine.BudgetPool. The store then owns its blocks'
// memory end to end. A committed block is admitted under its path's entry
// lock with the largest-first policy of engine.ResidentIndex (size, then
// admission order): under contention, resident blocks strictly larger than
// the newcomer spill to disk in the shared spill record format, and a
// newcomer that still does not fit spills itself, cold from birth. A freed
// block releases its reservation; a read of a spilled block reinstates it
// when its bytes fit without evicting, and serves it from disk otherwise,
// so a read never fails on the tier a block is in. Whoever takes a block
// out of the eviction index owns its reservation: a free releases only what
// the index hands back, and an evictor whose victim was freed meanwhile
// keeps the bytes to fund its admission retry. So every reservation is
// released exactly once, and the pool's held bytes equal the resident bytes
// the store counts at admit, free, evict and readmit.
package kvstore

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/spill"
	"m3r/internal/wio"
	"m3r/internal/x10"
)

// BlockInfo identifies one block of a path: the place that stores its data,
// a store-assigned sequence number, a caller-supplied tag, and the number of
// pairs the block holds. It is the "metadata" of Fig. 5 — comparable with
// ==, as the paper requires a "reasonable equals method".
type BlockInfo struct {
	Place int
	Seq   int64
	Tag   string
	Pairs int64
}

// PathInfo describes a path in the store.
type PathInfo struct {
	Path   string
	Dir    bool
	Blocks []BlockInfo
	// Pairs is the total number of key/value pairs across all blocks.
	Pairs int64
	// Attrs are free-form path attributes (e.g. the M3R cache marks
	// entries that exist only in the cache, never on the backing store).
	Attrs map[string]string
}

type pathMeta struct {
	dir    bool
	blocks []BlockInfo
	pairs  int64
	attrs  map[string]string
}

// table is one place's concurrent hash table of metadata plus its entry
// locks. A path is locked exactly while it has an entry in locks: false
// while one holder has it and nobody waits — the paper's lightweight lock,
// which allocates nothing — and true once a second acquirer arrives, which
// upgrades it to the monitor: the waiters park on the table's condition
// variable, and the release of a contended lock wakes them to race for it.
type table struct {
	mu    sync.Mutex
	meta  map[string]*pathMeta
	locks map[string]bool
	freed sync.Cond // on mu: a contended lock was released
}

func newTable() *table {
	t := &table{meta: make(map[string]*pathMeta), locks: make(map[string]bool)}
	t.freed.L = &t.mu
	return t
}

// acquire blocks until the entry lock for key is held by the caller.
func (t *table) acquire(key string) {
	t.mu.Lock()
	for {
		if _, held := t.locks[key]; !held {
			t.locks[key] = false
			t.mu.Unlock()
			return
		}
		t.locks[key] = true
		t.freed.Wait()
	}
}

// release frees the entry lock, waking its waiters when it has any.
func (t *table) release(key string) {
	t.mu.Lock()
	contended, held := t.locks[key]
	if !held {
		t.mu.Unlock()
		panic(fmt.Sprintf("kvstore: release of unheld lock %q", key))
	}
	delete(t.locks, key)
	t.mu.Unlock()
	if contended {
		t.freed.Broadcast()
	}
}

// get reads a path's metadata; callers hold the path's entry lock.
func (t *table) get(path string) (*pathMeta, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.meta[path]
	return m, ok
}

func (t *table) put(path string, m *pathMeta) {
	t.mu.Lock()
	t.meta[path] = m
	t.mu.Unlock()
}

func (t *table) del(path string) {
	t.mu.Lock()
	delete(t.meta, path)
	t.mu.Unlock()
}

// blockData is one block's storage state: resident pairs on the heap, or a
// spilled image on disk in the shared spill record format (exactly one of
// the two is live). size is the block's accounting size in the record
// format — the bytes its admission reserved — and stays attached across
// spill/readmit transitions; 0 means the block is unaccounted (no budget,
// or its pairs cannot round-trip through the record format) and therefore
// never spills.
type blockData struct {
	pairs []wio.Pair
	size  int64
	spill *spilledBlock
}

// spilledBlock locates one block's on-disk image. The key/value class names
// ride in memory (as with the shuffle's spilled runs) so a reader can
// decode records back into fresh writables.
type spilledBlock struct {
	path               string
	keyClass, valClass string
}

// dataTable is one place's block storage.
type dataTable struct {
	mu sync.Mutex
	m  map[BlockInfo]*blockData
}

// Store is the distributed key/value store.
type Store struct {
	rt      *x10.Runtime
	meta    []*table
	data    []*dataTable
	seqMu   sync.Mutex
	nextSeq int64

	attrMu sync.Mutex
	attrs  map[[2]string]map[string]string // the shared one-attribute maps (sharedAttr)

	budget     atomic.Pointer[budget] // nil: every block stays on the heap
	resident   atomic.Int64           // bytes of resident accounted blocks
	spilled    atomic.Int64           // blocks moved to disk (evictions and overflow)
	readmitted atomic.Int64           // spilled blocks reinstated by a read
}

// budget is a store's cache budget: per place, the reservation view every
// accounted block is charged to and the eviction index of the resident
// accounted blocks, plus the directory spilled blocks live in, made on the
// first spill.
type budget struct {
	places []*engine.JobBudget
	idx    []*engine.ResidentIndex[BlockInfo]
	codec  spill.Codec

	dirMu sync.Mutex
	dir   string
	files int
}

// New creates a store over the runtime's places.
func New(rt *x10.Runtime) *Store {
	s := &Store{rt: rt}
	for i := 0; i < rt.NumPlaces(); i++ {
		s.meta = append(s.meta, newTable())
		s.data = append(s.data, &dataTable{m: make(map[BlockInfo]*blockData)})
	}
	// The root directory always exists.
	s.meta[s.metaPlace("/")].meta["/"] = &pathMeta{dir: true}
	return s
}

// SetBudget puts the store's blocks under a cache budget: places holds one
// reservation view per place, and spilled blocks are written with codec.
// Set it before any block is written: blocks committed without a budget
// stay unaccounted on the heap.
func (s *Store) SetBudget(places []*engine.JobBudget, codec spill.Codec) {
	b := &budget{places: places, codec: codec, idx: make([]*engine.ResidentIndex[BlockInfo], len(places))}
	for p := range b.idx {
		b.idx[p] = engine.NewResidentIndex[BlockInfo]()
	}
	s.budget.Store(b)
}

// DropBudget takes the budget down at teardown: every reservation drains
// and the spill directory goes. Resident blocks stay readable, spilled ones
// do not, and nothing is admitted, evicted or readmitted afterwards.
func (s *Store) DropBudget() {
	b := s.budget.Swap(nil)
	if b == nil {
		return
	}
	for p, jb := range b.places {
		jb.Drain()
		b.idx[p].Close()
	}
	b.dirMu.Lock()
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
	b.dirMu.Unlock()
}

// Budgeted reports whether the store has a cache budget.
func (s *Store) Budgeted() bool { return s.budget.Load() != nil }

// BudgetHeldBytes sums the budget's reservations across places (0 without
// a budget). At quiescence it equals ResidentBytes.
func (s *Store) BudgetHeldBytes() int64 {
	b := s.budget.Load()
	if b == nil {
		return 0
	}
	var held int64
	for _, jb := range b.places {
		held += jb.Held()
	}
	return held
}

// ResidentBytes returns the bytes of resident accounted blocks.
func (s *Store) ResidentBytes() int64 { return s.resident.Load() }

// SpilledBlocks returns how many blocks the budget has moved to disk.
func (s *Store) SpilledBlocks() int64 { return s.spilled.Load() }

// ReadmittedBlocks returns how many spilled blocks a read has reinstated.
func (s *Store) ReadmittedBlocks() int64 { return s.readmitted.Load() }

func (s *Store) noteResident(delta int64) {
	s.resident.Add(delta)
}

// admit charges a freshly committed block of size accounted bytes to its
// place. Under contention, resident blocks strictly larger than the
// newcomer are evicted first; a block that still does not fit spills. The
// caller holds the block's path entry lock. An error leaves the block
// resident and unreserved.
func (s *Store) admit(b *budget, info BlockInfo, size int64) error {
	admitted, _, err := b.places[info.Place].ReserveEvicting(size, func(min int64) (int64, error) {
		return s.evictOne(b, info.Place, min)
	})
	if err != nil {
		return err
	}
	if !admitted {
		return s.spillBlock(b, info)
	}
	if b.idx[info.Place].Add(info, size, 0) {
		s.noteResident(size)
	}
	return nil
}

// evictOne is the eviction callback of admit: spill the largest resident
// block at place strictly larger than min and return its reservation size,
// 0 when none qualifies. Taking the block out of the index makes its
// reservation the evictor's, so it is returned unreleased — the pool folds
// the release into its retry — and a block freed before the spill lands
// funds the retry the same way. Ties break toward the earlier admission,
// so the victim is a function of arrival order.
func (s *Store) evictOne(b *budget, place int, min int64) (int64, error) {
	info, size, ok := b.idx[place].TakeLargest(min)
	if !ok {
		return 0, nil
	}
	if err := s.spillBlock(b, info); err != nil {
		// The block stays resident and goes back to the index with its
		// reservation, under the data table's mutex so that a free either
		// finds it there or has already gone — then the bytes are ours.
		dt := s.data[place]
		dt.mu.Lock()
		_, present := dt.m[info]
		if present {
			b.idx[place].Add(info, size, 0)
		}
		dt.mu.Unlock()
		if !present {
			b.places[place].Release(size)
			s.noteResident(-size)
		}
		return 0, err
	}
	s.noteResident(-size)
	return size, nil
}

// spillBlock moves a resident block's pairs to a fresh file in the spill
// directory, freeing their heap space. A block freed meanwhile is left
// alone and the partial file removed. It takes only the data table's
// mutex, so it can run inside another block's admission.
func (s *Store) spillBlock(b *budget, info BlockInfo) error {
	dt := s.data[info.Place]
	dt.mu.Lock()
	bd := dt.m[info]
	var pairs []wio.Pair
	if bd != nil {
		pairs = bd.pairs
	}
	dt.mu.Unlock()
	if bd == nil {
		return nil
	}
	path, err := b.spillPath()
	if err != nil {
		return err
	}
	recs, keyClass, valClass, _, err := spill.MarshalRun(pairs)
	if err != nil {
		// Cannot happen for a block that encoded at commit (size > 0); fail
		// loudly rather than silently skipping the victim.
		return fmt.Errorf("kvstore: re-encoding block %+v for spill: %w", info, err)
	}
	enc, err := spill.EncodeRun(recs, b.codec)
	if err != nil {
		return err
	}
	if _, err := spill.WriteEncodedFile(path, enc); err != nil {
		return err
	}
	dt.mu.Lock()
	if dt.m[info] != bd {
		dt.mu.Unlock()
		os.Remove(path)
		return nil
	}
	bd.pairs = nil
	bd.spill = &spilledBlock{path: path, keyClass: keyClass, valClass: valClass}
	dt.mu.Unlock()
	s.spilled.Add(1)
	return nil
}

// spillPath returns a fresh file path for one spilled block, making the
// store's spill directory on first use.
func (b *budget) spillPath() (string, error) {
	b.dirMu.Lock()
	defer b.dirMu.Unlock()
	if b.dir == "" {
		d, err := os.MkdirTemp("", "m3r-cache-")
		if err != nil {
			return "", err
		}
		b.dir = d
	}
	b.files++
	return filepath.Join(b.dir, fmt.Sprintf("blk_%06d", b.files)), nil
}

// metaPlace returns the place whose table holds path's metadata (static
// hash partitioning, §5.2): FNV-1a over the path's bytes, reduced in
// uint32 so the index is never negative where int is 32 bits.
func (s *Store) metaPlace(path string) int {
	h := uint32(2166136261)
	for i := 0; i < len(path); i++ {
		h ^= uint32(path[i])
		h *= 16777619
	}
	return int(h % uint32(len(s.meta)))
}

func (s *Store) tableOf(path string) *table { return s.meta[s.metaPlace(path)] }

// lockRename acquires the entry locks of a rename of src onto dst
// following the 2PL/LCA protocol: the paths' least common ancestor first,
// then src, dst and dst's ancestors below the LCA — the ones the rename may
// have to make — in lexicographic order (an ancestor is a prefix of its
// descendants, so it sorts first, as in Mkdirs). It returns those
// ancestors, deepest first, and the locks held.
func (s *Store) lockRename(src, dst string) (parents, held []string) {
	lca := commonAncestor(src, dst)
	for a := parentOf(dst); len(a) > len(lca); a = parentOf(a) {
		parents = append(parents, a)
	}
	held = append([]string{lca, src, dst}, parents...)
	slices.Sort(held)
	held = slices.Compact(held)
	for _, p := range held {
		s.tableOf(p).acquire(p)
	}
	return parents, held
}

// commonAncestor returns the deepest directory that is an ancestor of both
// paths (a itself when it is b's ancestor).
func commonAncestor(a, b string) string {
	lca := a
	for !dfs.IsAncestor(lca, b) {
		lca = dfs.Parent(lca)
	}
	return lca
}

// getMeta reads a path's metadata; callers hold the path's entry lock.
func (s *Store) getMeta(path string) (*pathMeta, bool) { return s.tableOf(path).get(path) }

func (s *Store) putMeta(path string, m *pathMeta) { s.tableOf(path).put(path, m) }

func (s *Store) delMeta(path string) { s.tableOf(path).del(path) }

// Mkdirs creates path and missing ancestors.
func (s *Store) Mkdirs(path string) error {
	path = dfs.CleanPath(path)
	if err := s.lockDirs(path); err != nil {
		return fmt.Errorf("kvstore: mkdirs %s: %w", path, err)
	}
	s.releaseUp(path, "/")
	return nil
}

// lockDirs locks dir and its ancestors top-down from the root, making the
// missing ones directories. Each new lock's LCA with the held set is its
// parent, which is held, satisfying the protocol; every ancestor is a
// prefix of dir, so the walk allocates only the entries it creates. On
// success every lock from the root to dir is held; on an ancestor that is
// a file, none is.
func (s *Store) lockDirs(dir string) error {
	for a := range dfs.AncestorsOf(dir) {
		t := s.tableOf(a)
		t.acquire(a)
		if m, ok := t.get(a); !ok {
			t.put(a, &pathMeta{dir: true})
		} else if !m.dir {
			s.releaseUp(a, "/")
			return fmt.Errorf("%s is a file", a)
		}
	}
	return nil
}

// releaseUp releases the entry locks of path and its ancestors up to top.
func (s *Store) releaseUp(path, top string) {
	for a := path; ; a = parentOf(a) {
		s.tableOf(a).release(a)
		if a == top {
			return
		}
	}
}

// lockForWrite takes the entry lock of path, which a write may create,
// after its parent's, so that the parent stays a directory until the write
// commits; a missing parent is made under lockDirs. It returns the topmost
// lock held — the parent, or the root after a make — for releaseUp.
func (s *Store) lockForWrite(path string) (top string, err error) {
	top = path
	if path != "/" {
		top = parentOf(path)
		t := s.tableOf(top)
		t.acquire(top)
		if m, ok := t.get(top); !ok || !m.dir {
			t.release(top)
			if err := s.lockDirs(top); err != nil {
				return "", err
			}
			top = "/"
		}
	}
	s.tableOf(path).acquire(path)
	return top, nil
}

// parentOf returns the parent of a canonical path, or "" for the root.
func parentOf(p string) string {
	if p == "/" {
		return ""
	}
	return p[:max(strings.LastIndexByte(p, '/'), 1)]
}

// GetInfo returns a private copy of a path's metadata (Fig. 5 getInfo):
// the caller may keep and modify it.
func (s *Store) GetInfo(path string) (PathInfo, bool) {
	var info PathInfo
	ok := s.ViewInfo(path, func(v PathInfo) {
		info = v
		info.Blocks = make([]BlockInfo, len(v.Blocks))
		copy(info.Blocks, v.Blocks)
		info.Attrs = nil
		if len(v.Attrs) > 0 {
			info.Attrs = maps.Clone(v.Attrs)
		}
	})
	return info, ok
}

// ViewInfo calls fn with a path's metadata under the path's entry lock and
// reports whether the path is present (fn is not called when it is not).
// It copies nothing: Blocks and Attrs are the store's own, so fn may read
// them but must neither modify nor retain them, and must not call back into
// the store for path.
func (s *Store) ViewInfo(path string, fn func(PathInfo)) bool {
	path = dfs.CleanPath(path)
	t := s.tableOf(path)
	t.acquire(path)
	defer t.release(path)
	m, ok := t.get(path)
	if ok {
		fn(PathInfo{Path: path, Dir: m.dir, Blocks: m.blocks, Pairs: m.pairs, Attrs: m.attrs})
	}
	return ok
}

// SetAttr sets a path attribute. The path must exist. An entry's
// attributes are copy-on-write — a map installed on an entry is never
// written again — so entries share them: a path whose one attribute is
// key=value holds the store's one map of it (sharedAttr).
func (s *Store) SetAttr(path, key, value string) error {
	path = dfs.CleanPath(path)
	t := s.tableOf(path)
	t.acquire(path)
	defer t.release(path)
	m, ok := t.get(path)
	if !ok {
		return fmt.Errorf("kvstore: setattr %s: %w", path, dfs.ErrNotFound)
	}
	if v, ok := m.attrs[key]; ok && v == value {
		return nil
	}
	if _, ok := m.attrs[key]; len(m.attrs) == 0 || ok && len(m.attrs) == 1 {
		m.attrs = s.sharedAttr(key, value)
		return nil
	}
	next := maps.Clone(m.attrs)
	next[key] = value
	m.attrs = next
	return nil
}

// maxSharedAttrs bounds how many one-attribute maps a store keeps for its
// entries to share.
const maxSharedAttrs = 64

// sharedAttr returns the one-attribute map {key: value} that entries share,
// made on first use; past maxSharedAttrs distinct ones, a fresh map.
func (s *Store) sharedAttr(key, value string) map[string]string {
	s.attrMu.Lock()
	defer s.attrMu.Unlock()
	k := [2]string{key, value}
	if a, ok := s.attrs[k]; ok {
		return a
	}
	a := map[string]string{key: value}
	if len(s.attrs) < maxSharedAttrs {
		if s.attrs == nil {
			s.attrs = make(map[[2]string]map[string]string)
		}
		s.attrs[k] = a
	}
	return a
}

// Exists reports whether path is present.
func (s *Store) Exists(path string) bool {
	path = dfs.CleanPath(path)
	t := s.tableOf(path)
	t.acquire(path)
	defer t.release(path)
	_, ok := t.get(path)
	return ok
}

// Children returns the store paths directly under dir, sorted. (Metadata is
// hash-partitioned, so this scans every place's table.)
func (s *Store) Children(dir string) []string {
	dir = dfs.CleanPath(dir)
	var out []string
	for _, t := range s.meta {
		t.mu.Lock()
		for p := range t.meta {
			if dfs.IsChild(p, dir) {
				out = dfs.AppendListed(out, p)
			}
		}
		t.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// subtree returns all strict descendants of dir across every table.
func (s *Store) subtree(dir string) []string {
	var out []string
	for _, t := range s.meta {
		t.mu.Lock()
		for p := range t.meta {
			if dfs.IsBelow(p, dir) {
				out = dfs.AppendListed(out, p)
			}
		}
		t.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Delete removes a path (and, for directories, its whole subtree) from the
// store, freeing block data (Fig. 5 delete). Deleting a missing path is a
// no-op so filesystem interception can forward deletes unconditionally.
func (s *Store) Delete(path string) error {
	path = dfs.CleanPath(path)
	if path == "/" {
		return fmt.Errorf("kvstore: cannot delete the root")
	}
	t := s.tableOf(path)
	t.acquire(path)
	defer t.release(path)
	m, ok := t.get(path)
	if !ok {
		return nil
	}
	if m.dir {
		s.drain(path, func(p string, dm *pathMeta) {
			s.freeBlocks(dm.blocks)
			s.delMeta(p)
		})
	}
	s.freeBlocks(m.blocks)
	t.del(path)
	return nil
}

// drain calls fn, under each one's entry lock, on every strict descendant
// of dir, and lists them again until none is left; fn takes the entry out
// of dir's subtree. The caller holds dir's entry lock. An entry is made
// only under its parent's lock, so one made under a directory of the
// subtree after a listing is in the next.
func (s *Store) drain(dir string, fn func(p string, m *pathMeta)) {
	for ps := s.subtree(dir); len(ps) > 0; ps = s.subtree(dir) {
		for _, p := range ps {
			t := s.tableOf(p)
			t.acquire(p)
			if m, ok := t.get(p); ok {
				fn(p, m)
			}
			t.release(p)
		}
	}
}

// freeBlocks removes block data, deletes any spilled images from disk, and
// releases the reservation of each block still in the eviction index — one
// an evictor has taken out is the evictor's to settle. Callers hold the
// owning path's entry lock, so a free can never interleave with a readmit
// of the same block (CreateReader readmits under that lock too).
func (s *Store) freeBlocks(blocks []BlockInfo) {
	b := s.budget.Load()
	for _, info := range blocks {
		dt := s.data[info.Place]
		dt.mu.Lock()
		bd := dt.m[info]
		delete(dt.m, info)
		dt.mu.Unlock()
		if bd == nil {
			continue
		}
		if bd.spill != nil {
			os.Remove(bd.spill.path)
		}
		if b == nil {
			continue
		}
		if size, ok := b.idx[info.Place].Remove(info); ok {
			b.places[info.Place].Release(size)
			s.noteResident(-size)
		}
	}
}

// Rename moves path src (file or directory subtree) to dst (Fig. 5 rename),
// making dst's missing parents. Renaming a missing source is a no-op (see
// Delete) and makes nothing. Block data does not move: only metadata is
// rewritten, exactly as in the paper's store. Each directory moved in
// stays locked at its new path until the rename commits, so nothing is
// written, moved or deleted under it before the rest of the subtree
// arrives.
func (s *Store) Rename(src, dst string) error {
	src, dst = dfs.CleanPath(src), dfs.CleanPath(dst)
	if src == dst {
		return nil
	}
	if dfs.IsAncestor(src, dst) {
		return fmt.Errorf("kvstore: rename %s into its own subtree %s", src, dst)
	}
	parents, held := s.lockRename(src, dst)
	defer func() {
		for i := len(held) - 1; i >= 0; i-- {
			s.tableOf(held[i]).release(held[i])
		}
	}()
	m, ok := s.getMeta(src)
	if !ok {
		return nil
	}
	// An existing source's ancestors exist, so a destination that is one of
	// them exists too.
	if _, exists := s.getMeta(dst); exists {
		return fmt.Errorf("kvstore: rename to %s: %w", dst, dfs.ErrExists)
	}
	for i := len(parents) - 1; i >= 0; i-- {
		if pm, ok := s.getMeta(parents[i]); !ok {
			s.putMeta(parents[i], &pathMeta{dir: true})
		} else if !pm.dir {
			return fmt.Errorf("kvstore: rename to %s: %s is a file", dst, parents[i])
		}
	}
	if m.dir {
		s.drain(src, func(p string, dm *pathMeta) {
			np := dst + strings.TrimPrefix(p, src)
			if dm.dir {
				s.tableOf(np).acquire(np)
				held = append(held, np)
			}
			s.putMeta(np, dm)
			s.delMeta(p)
		})
	}
	s.putMeta(dst, m)
	s.delMeta(src)
	return nil
}

// Writer accumulates pairs for one block; Close commits it atomically.
type Writer struct {
	store *Store
	path  string
	place int
	tag   string
	pairs []wio.Pair
	done  bool
	// entry is the file entry the writer made, whose block storage the
	// first Close takes; nil when the path existed.
	entry *fileEntry
}

// fileEntry is a file entry a writer makes, with the storage of its first
// block — its data and its place in the block list — in one allocation:
// what a task's output costs the store's metadata.
type fileEntry struct {
	pathMeta
	data  blockData
	first [1]BlockInfo
}

// CreateWriter starts a new block of path whose data will live at place —
// "the createWriter call will create a block at the place where it is
// invoked" (§5.2). The path is created (as a file) if missing, and so are
// its missing parents (as directories).
func (s *Store) CreateWriter(place int, path, tag string) (*Writer, error) {
	w := new(Writer)
	if err := s.OpenWriter(w, place, path, tag); err != nil {
		return nil, err
	}
	return w, nil
}

// OpenWriter is CreateWriter into w, for an owner that holds its writer by
// value.
func (s *Store) OpenWriter(w *Writer, place int, path, tag string) error {
	path = dfs.CleanPath(path)
	if place < 0 || place >= len(s.data) {
		return fmt.Errorf("kvstore: no such place %d", place)
	}
	top, err := s.lockForWrite(path)
	if err != nil {
		return fmt.Errorf("kvstore: createWriter %s: %w", path, err)
	}
	defer s.releaseUp(path, top)
	t := s.tableOf(path)
	m, ok := t.get(path)
	if ok && m.dir {
		return fmt.Errorf("kvstore: createWriter %s: is a directory", path)
	}
	*w = Writer{store: s, path: path, place: place, tag: tag}
	if !ok {
		w.entry = new(fileEntry)
		w.entry.blocks = w.entry.first[:0]
		t.put(path, &w.entry.pathMeta)
	}
	return nil
}

// Append buffers one pair into the block.
func (w *Writer) Append(p wio.Pair) { w.pairs = append(w.pairs, p) }

// Grow makes room for n more pairs in the block.
func (w *Writer) Grow(n int) { w.pairs = slices.Grow(w.pairs, n) }

// AppendAll buffers pairs into the block.
func (w *Writer) AppendAll(ps []wio.Pair) { w.pairs = append(w.pairs, ps...) }

// Close installs the block into the store, recording its pair count in
// its BlockInfo. The pairs slice is retained: local readers alias it. Under
// a budget, the block's accounting size is computed (the record-format
// bytes it would occupy spilled — the cost Hadoop always pays at collect
// time) and admitted under the path's entry lock, so a concurrent Delete
// can never free the block before it is charged; an admission error fails
// the Close. A path that has become a directory since CreateWriter fails
// it too, and nothing is installed. The commit takes the entry's lock
// alone while the entry exists, and makes it again under its parent's lock
// when it was deleted meanwhile.
func (w *Writer) Close() (BlockInfo, error) {
	if w.done {
		return BlockInfo{}, fmt.Errorf("kvstore: writer for %s already closed", w.path)
	}
	w.done = true
	w.store.seqMu.Lock()
	w.store.nextSeq++
	info := BlockInfo{Place: w.place, Seq: w.store.nextSeq, Tag: w.tag, Pairs: int64(len(w.pairs))}
	w.store.seqMu.Unlock()

	b := w.store.budget.Load()
	var size int64
	if b != nil && len(w.pairs) > 0 {
		// A block whose pairs cannot round-trip through the record format
		// (unregistered types) stays unaccounted and pinned on the heap,
		// exactly like an unencodable shuffle run.
		if sz, err := spill.RunSize(w.pairs); err == nil {
			size = sz
		}
	}

	t := w.store.tableOf(w.path)
	t.acquire(w.path)
	top := w.path
	m, ok := t.get(w.path)
	if !ok {
		t.release(w.path)
		var err error
		if top, err = w.store.lockForWrite(w.path); err != nil {
			return BlockInfo{}, fmt.Errorf("kvstore: commit %s: %w", w.path, err)
		}
		m, ok = t.get(w.path)
	}
	defer w.store.releaseUp(w.path, top)
	if ok && m.dir {
		return BlockInfo{}, fmt.Errorf("kvstore: commit %s: is a directory", w.path)
	}
	if !ok {
		// Deleted between CreateWriter and Close; recreate, matching the
		// last-writer-wins semantics of a cache.
		m = &pathMeta{}
		t.put(w.path, m)
	}
	var bd *blockData
	if e := w.entry; e != nil {
		bd, w.entry = &e.data, nil
	} else {
		bd = new(blockData)
	}
	*bd = blockData{pairs: w.pairs, size: size}
	dt := w.store.data[w.place]
	dt.mu.Lock()
	dt.m[info] = bd
	dt.mu.Unlock()
	m.blocks = append(m.blocks, info)
	m.pairs += info.Pairs
	if size > 0 {
		if err := w.store.admit(b, info, size); err != nil {
			return BlockInfo{}, fmt.Errorf("kvstore: commit %s: %w", w.path, err)
		}
	}
	return info, nil
}

// Reader iterates one block's pairs.
type Reader struct {
	pairs []wio.Pair
	pos   int
	// Remote reports whether the pairs crossed places (were deserialized).
	Remote bool
}

// CreateReader opens block info of path for reading at place. Local reads
// alias the stored pairs; remote reads serialize them across the transport.
// A spilled block decodes back off disk here — reinstated resident when the
// budget has room for it (the transparent readmit of a tiered cache),
// served transiently otherwise, so reads always succeed while the budget
// decides only where the block lives afterwards.
func (s *Store) CreateReader(place int, path string, info BlockInfo) (*Reader, error) {
	pairs, remote, err := s.ReadPairs(place, path, info)
	if err != nil {
		return nil, err
	}
	return &Reader{pairs: pairs, Remote: remote}, nil
}

// ReadPairs is CreateReader for a caller that takes the block's pairs whole:
// the pairs, and whether they crossed places.
func (s *Store) ReadPairs(place int, path string, info BlockInfo) (pairs []wio.Pair, remote bool, err error) {
	path = dfs.CleanPath(path)
	if pairs, err = s.readBlock(path, info); err != nil {
		return nil, false, err
	}
	if info.Place == place {
		return pairs, false, nil
	}
	res, err := s.rt.ShipPairs(info.Place, place, pairs, true)
	if err != nil {
		return nil, false, err
	}
	return res.Pairs, true, nil
}

// readBlock returns the pairs of block info of path. The lookup and the
// block fetch (and a possible readmit) happen under the path's entry lock:
// frees hold it too, so the spilled/resident state cannot change underneath
// the decode.
func (s *Store) readBlock(path string, info BlockInfo) ([]wio.Pair, error) {
	t := s.tableOf(path)
	t.acquire(path)
	defer t.release(path)
	m, ok := t.get(path)
	if !ok {
		return nil, fmt.Errorf("kvstore: read %s: %w", path, dfs.ErrNotFound)
	}
	if !slices.Contains(m.blocks, info) {
		return nil, fmt.Errorf("kvstore: read %s: block %+v not present", path, info)
	}
	pairs, err := s.blockPairs(info)
	if err != nil {
		return nil, fmt.Errorf("kvstore: read %s: %w", path, err)
	}
	return pairs, nil
}

// blockPairs returns one block's pairs, decoding a spilled block back from
// disk. The caller holds the owning path's entry lock.
func (s *Store) blockPairs(info BlockInfo) ([]wio.Pair, error) {
	dt := s.data[info.Place]
	dt.mu.Lock()
	bd := dt.m[info]
	if bd == nil || bd.spill == nil {
		var pairs []wio.Pair
		if bd != nil {
			pairs = bd.pairs
		}
		dt.mu.Unlock()
		return pairs, nil
	}
	sp := *bd.spill
	dt.mu.Unlock()
	pairs, err := decodeSpilledBlock(sp, info.Pairs)
	if err != nil {
		return nil, fmt.Errorf("spilled block %+v: %w", info, err)
	}
	// A read never evicts: the block readmits only into free bytes. No free
	// or readmit of it can interleave (both hold the path's entry lock), and
	// no evictor can take it: a spilled block is in no index.
	if b := s.budget.Load(); b != nil && b.places[info.Place].Reserve(bd.size) {
		dt.mu.Lock()
		bd.pairs, bd.spill = pairs, nil
		dt.mu.Unlock()
		os.Remove(sp.path)
		if b.idx[info.Place].Add(info, bd.size, 0) {
			s.noteResident(bd.size)
		}
		s.readmitted.Add(1)
	}
	return pairs, nil
}

// decodeSpilledBlock reads a spilled block of n pairs back into writables:
// distinct objects from slabs of at most n, which the block's readers may
// keep, and which the cache keeps when the block readmits — so none from a
// slab shared with objects that die with a job (spill.NewPairDecoder's
// kept). The file is read as an owned stream: each of its segment blocks
// is one fresh buffer of exactly its record-format bytes, and every
// non-empty key and value body is a view of it (DecodeOwned), so the pairs
// cost one body allocation a segment block, not one a record, and a
// readmitted block holds its record-format bytes and its objects. A file of
// any other length than the block's is an error: the block is never served
// short, or with another block's pairs.
func decodeSpilledBlock(sp spilledBlock, n int64) ([]wio.Pair, error) {
	st, err := spill.OpenFile(sp.path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	st.ReadOwned()
	dec, err := spill.NewPairDecoder(sp.keyClass, sp.valClass, int(n), true)
	if err != nil {
		return nil, err
	}
	pairs := make([]wio.Pair, 0, n)
	for {
		rec, ok, err := st.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		p, err := dec.DecodeOwned(rec)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, p)
	}
	if int64(len(pairs)) != n {
		return nil, fmt.Errorf("kvstore: spill file %s holds %d pairs, the block %d", sp.path, len(pairs), n)
	}
	return pairs, nil
}

// Next returns the next pair, or ok=false at the end.
func (r *Reader) Next() (wio.Pair, bool) {
	if r.pos >= len(r.pairs) {
		return wio.Pair{}, false
	}
	p := r.pairs[r.pos]
	r.pos++
	return p, true
}

// Len returns the number of pairs in the block.
func (r *Reader) Len() int { return len(r.pairs) }

// Pairs returns the underlying slice (aliased for local reads).
func (r *Reader) Pairs() []wio.Pair { return r.pairs }
