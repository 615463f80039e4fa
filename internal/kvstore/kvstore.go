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
// Locking follows the paper's protocol: each table entry is swapped for a
// lock entry on acquisition — one shared sentinel, so an uncontended lock
// allocates nothing — upgraded to a heavier-weight monitor (here: a queue
// of wait channels) only when a second acquirer arrives. Single-path
// operations take their one entry lock; multi-path operations (Rename, and
// Mkdirs down its ancestors) use two-phase locking and acquire the least
// common ancestor of the involved paths first, which (with a total order on
// siblings) makes deadlock impossible.
package kvstore

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"

	"m3r/internal/dfs"
	"m3r/internal/spill"
	"m3r/internal/wio"
	"m3r/internal/x10"
)

// BlockInfo identifies one block of a path: the place that stores its data,
// a store-assigned sequence number, and a caller-supplied tag. It is the
// "metadata" of Fig. 5 — comparable with ==, as the paper requires a
// "reasonable equals method".
type BlockInfo struct {
	Place int
	Seq   int64
	Tag   string
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

// lockEntry is the monitor an entry lock is upgraded to under contention:
// the queue that blocked acquirers park on. An uncontended lock is the
// shared uncontended sentinel instead, so taking one allocates nothing.
type lockEntry struct {
	waiters []chan struct{}
}

// uncontended is the paper's lightweight lock: the entry a path's lock is
// swapped for while one holder has it and nobody waits. It never queues
// waiters; the second acquirer replaces it with a fresh lockEntry.
var uncontended = new(lockEntry)

// table is one place's concurrent hash table of metadata plus its lock
// entries. A path is locked exactly while it has an entry in locks.
type table struct {
	mu    sync.Mutex
	meta  map[string]*pathMeta
	locks map[string]*lockEntry
}

func newTable() *table {
	return &table{meta: make(map[string]*pathMeta), locks: make(map[string]*lockEntry)}
}

// acquire blocks until the entry lock for key is held by the caller.
func (t *table) acquire(key string) {
	t.mu.Lock()
	e, ok := t.locks[key]
	if !ok {
		t.locks[key] = uncontended
		t.mu.Unlock()
		return
	}
	if e == uncontended {
		e = &lockEntry{}
		t.locks[key] = e
	}
	ch := make(chan struct{})
	e.waiters = append(e.waiters, ch)
	t.mu.Unlock()
	<-ch
}

// release hands the entry lock to the next waiter, or frees it.
func (t *table) release(key string) {
	t.mu.Lock()
	e, ok := t.locks[key]
	if !ok {
		t.mu.Unlock()
		panic(fmt.Sprintf("kvstore: release of unheld lock %q", key))
	}
	if len(e.waiters) > 0 {
		ch := e.waiters[0]
		e.waiters = e.waiters[1:]
		t.mu.Unlock()
		close(ch)
		return
	}
	delete(t.locks, key)
	t.mu.Unlock()
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
// format — the bytes a Residency hook charged at commit — and stays
// attached across spill/readmit transitions; 0 means the block is
// unaccounted (no hook installed, or its pairs cannot round-trip through
// the record format) and therefore never spills.
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

// Residency is the store's memory-accounting hook: when installed (the M3R
// engine's budgeted cache), every committed block reports its byte
// footprint, freed blocks report it back, and spilled blocks ask permission
// before re-entering memory. The store calls BlockCommitted under the
// path's entry lock (so a concurrent Delete can never report a free before
// the commit is reported) and never while holding a dataTable mutex, so
// implementations may call back into SpillBlock to evict.
type Residency interface {
	// BlockCommitted reports a block installed resident with accounting
	// size size (> 0). An error fails the commit path loudly; the
	// implementation guarantees it then holds no reservation for info.
	BlockCommitted(info BlockInfo, size int64) error
	// BlockFreed reports a block leaving the store. resident tells whether
	// its pairs were still on the heap (a reservation may be held).
	BlockFreed(info BlockInfo, size int64, resident bool)
	// RequestReadmit asks whether a spilled block may be reinstated
	// resident. A true return transfers a reservation of size bytes to the
	// store, which must follow with exactly one of ReadmitCommit (the
	// block is resident again) or ReadmitAbort (it is not).
	RequestReadmit(info BlockInfo, size int64) bool
	ReadmitCommit(info BlockInfo, size int64)
	ReadmitAbort(info BlockInfo, size int64)
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

	resMu     sync.RWMutex
	residency Residency
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

// SetResidency installs (or clears) the store's memory-accounting hook.
// Install it before any blocks are written: blocks committed without a hook
// are unaccounted forever.
func (s *Store) SetResidency(r Residency) {
	s.resMu.Lock()
	s.residency = r
	s.resMu.Unlock()
}

func (s *Store) residencyHook() Residency {
	s.resMu.RLock()
	defer s.resMu.RUnlock()
	return s.residency
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

// lockPair acquires the entry locks of a multi-path operation's two
// distinct paths following the 2PL/LCA protocol: their least common
// ancestor directory first, then the paths in lexicographic order (an
// ancestor is a prefix of its descendants, so it sorts first). It returns
// an unlock function releasing everything (two-phase: nothing is released
// until the operation commits). Single-path operations take their one
// entry lock directly.
func (s *Store) lockPair(a, b string) func() {
	if b < a {
		a, b = b, a
	}
	order := []string{commonAncestor(a, b), a, b}
	if order[0] == a {
		order = order[1:]
	}
	for _, p := range order {
		s.tableOf(p).acquire(p)
	}
	return func() {
		for i := len(order) - 1; i >= 0; i-- {
			p := order[i]
			s.tableOf(p).release(p)
		}
	}
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

// Mkdirs creates path and missing ancestors. Locks are taken top-down along
// the tree (each new lock's LCA with the held set is its parent, which is
// held), satisfying the protocol. Every ancestor is a prefix of path, so
// the walk allocates only the entries it creates.
func (s *Store) Mkdirs(path string) error {
	path = dfs.CleanPath(path)
	deepest := ""
	defer func() {
		for a := deepest; a != ""; a = parentOf(a) {
			s.tableOf(a).release(a)
		}
	}()
	for end := 1; ; end = nextAncestorEnd(path, end) {
		a := path[:end]
		t := s.tableOf(a)
		t.acquire(a)
		deepest = a
		if m, ok := t.get(a); !ok {
			t.put(a, &pathMeta{dir: true})
		} else if !m.dir {
			return fmt.Errorf("kvstore: mkdirs %s: %s is a file", path, a)
		}
		if end == len(path) {
			return nil
		}
	}
}

// nextAncestorEnd returns where the ancestor of the canonical path p one
// level below p[:end] ends; p[:1] is "/" and p[:len(p)] is p.
func nextAncestorEnd(p string, end int) int {
	if i := strings.IndexByte(p[end+1:], '/'); i >= 0 {
		return end + 1 + i
	}
	return len(p)
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

// SetAttr sets a path attribute. The path must exist.
func (s *Store) SetAttr(path, key, value string) error {
	path = dfs.CleanPath(path)
	t := s.tableOf(path)
	t.acquire(path)
	defer t.release(path)
	m, ok := t.get(path)
	if !ok {
		return fmt.Errorf("kvstore: setattr %s: %w", path, dfs.ErrNotFound)
	}
	if m.attrs == nil {
		m.attrs = make(map[string]string)
	}
	m.attrs[key] = value
	return nil
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
	prefix := dir + "/"
	if dir == "/" {
		prefix = "/"
	}
	var out []string
	for _, t := range s.meta {
		t.mu.Lock()
		for p := range t.meta {
			if p == dir || !strings.HasPrefix(p, prefix) {
				continue
			}
			rest := p[len(prefix):]
			if rest != "" && !strings.Contains(rest, "/") {
				out = append(out, p)
			}
		}
		t.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// subtree returns all strict descendants of dir across every table.
func (s *Store) subtree(dir string) []string {
	prefix := dir + "/"
	if dir == "/" {
		prefix = "/"
	}
	var out []string
	for _, t := range s.meta {
		t.mu.Lock()
		for p := range t.meta {
			if p != dir && strings.HasPrefix(p, prefix) {
				out = append(out, p)
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
		for _, p := range s.subtree(path) {
			s.tableOf(p).acquire(p)
			if dm, ok := s.getMeta(p); ok {
				s.freeBlocks(dm.blocks)
				s.delMeta(p)
			}
			s.tableOf(p).release(p)
		}
	}
	s.freeBlocks(m.blocks)
	t.del(path)
	return nil
}

// freeBlocks removes block data, deletes any spilled images from disk, and
// reports accounted blocks to the residency hook. Callers hold the owning
// path's entry lock, so a free can never interleave with a readmit of the
// same block (CreateReader readmits under that lock too).
func (s *Store) freeBlocks(blocks []BlockInfo) {
	h := s.residencyHook()
	for _, b := range blocks {
		dt := s.data[b.Place]
		dt.mu.Lock()
		bd := dt.m[b]
		delete(dt.m, b)
		dt.mu.Unlock()
		if bd == nil {
			continue
		}
		if bd.spill != nil {
			os.Remove(bd.spill.path)
		}
		if h != nil && bd.size > 0 {
			h.BlockFreed(b, bd.size, bd.spill == nil)
		}
	}
}

// Rename moves path src (file or directory subtree) to dst (Fig. 5 rename).
// Renaming a missing source is a no-op (see Delete). Block data does not
// move: only metadata is rewritten, exactly as in the paper's store.
func (s *Store) Rename(src, dst string) error {
	src, dst = dfs.CleanPath(src), dfs.CleanPath(dst)
	if src == dst {
		return nil
	}
	if dfs.IsAncestor(src, dst) {
		return fmt.Errorf("kvstore: rename %s into its own subtree %s", src, dst)
	}
	unlock := s.lockPair(src, dst)
	defer unlock()
	m, ok := s.getMeta(src)
	if !ok {
		return nil
	}
	if _, exists := s.getMeta(dst); exists {
		return fmt.Errorf("kvstore: rename to %s: %w", dst, dfs.ErrExists)
	}
	if m.dir {
		for _, p := range s.subtree(src) {
			s.tableOf(p).acquire(p)
			if dm, ok := s.getMeta(p); ok {
				np := dst + strings.TrimPrefix(p, src)
				s.putMeta(np, dm)
				s.delMeta(p)
			}
			s.tableOf(p).release(p)
		}
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
}

// CreateWriter starts a new block of path whose data will live at place —
// "the createWriter call will create a block at the place where it is
// invoked" (§5.2). The path is created (as a file) if missing.
func (s *Store) CreateWriter(place int, path, tag string) (*Writer, error) {
	path = dfs.CleanPath(path)
	if place < 0 || place >= len(s.data) {
		return nil, fmt.Errorf("kvstore: no such place %d", place)
	}
	t := s.tableOf(path)
	t.acquire(path)
	defer t.release(path)
	m, ok := t.get(path)
	if ok && m.dir {
		return nil, fmt.Errorf("kvstore: createWriter %s: is a directory", path)
	}
	if !ok {
		t.put(path, &pathMeta{})
	}
	return &Writer{store: s, path: path, place: place, tag: tag}, nil
}

// Append buffers one pair into the block.
func (w *Writer) Append(p wio.Pair) { w.pairs = append(w.pairs, p) }

// SetTag replaces the block tag before Close (e.g. to record the final
// pair count).
func (w *Writer) SetTag(tag string) { w.tag = tag }

// AppendAll buffers pairs into the block.
func (w *Writer) AppendAll(ps []wio.Pair) { w.pairs = append(w.pairs, ps...) }

// Close installs the block into the store. The pairs slice is retained:
// local readers alias it. With a residency hook installed, the block's
// accounting size is computed (the record-format bytes it would occupy
// spilled — the cost Hadoop always pays at collect time) and reported under
// the path's entry lock, so a concurrent Delete can never report the free
// before the commit; a hook error fails the Close.
func (w *Writer) Close() (BlockInfo, error) {
	if w.done {
		return BlockInfo{}, fmt.Errorf("kvstore: writer for %s already closed", w.path)
	}
	w.done = true
	w.store.seqMu.Lock()
	w.store.nextSeq++
	info := BlockInfo{Place: w.place, Seq: w.store.nextSeq, Tag: w.tag}
	w.store.seqMu.Unlock()

	h := w.store.residencyHook()
	var size int64
	if h != nil && len(w.pairs) > 0 {
		// A block whose pairs cannot round-trip through the record format
		// (unregistered types) stays unaccounted and pinned on the heap,
		// exactly like an unencodable shuffle run.
		if _, _, _, sz, err := spill.MarshalRun(w.pairs); err == nil {
			size = sz
		}
	}

	t := w.store.tableOf(w.path)
	t.acquire(w.path)
	defer t.release(w.path)
	m, ok := t.get(w.path)
	if !ok {
		// Deleted between CreateWriter and Close; recreate, matching the
		// last-writer-wins semantics of a cache.
		m = &pathMeta{}
		t.put(w.path, m)
	}
	bd := &blockData{pairs: w.pairs, size: size}
	dt := w.store.data[w.place]
	dt.mu.Lock()
	dt.m[info] = bd
	dt.mu.Unlock()
	m.blocks = append(m.blocks, info)
	m.pairs += int64(len(w.pairs))
	if h != nil && size > 0 {
		if err := h.BlockCommitted(info, size); err != nil {
			// The hook holds no reservation for the block; mark it
			// unaccounted so the eventual free does not release bytes that
			// were never charged, and surface the admission failure.
			dt.mu.Lock()
			if cur, ok := dt.m[info]; ok {
				cur.size = 0
			}
			dt.mu.Unlock()
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
// residency hook grants the bytes (the transparent readmit of a tiered
// cache), served transiently otherwise, so reads always succeed while the
// budget decides only where the block lives afterwards.
func (s *Store) CreateReader(place int, path string, info BlockInfo) (*Reader, error) {
	path = dfs.CleanPath(path)
	pairs, err := s.readBlock(path, info)
	if err != nil {
		return nil, err
	}
	if info.Place == place {
		return &Reader{pairs: pairs}, nil
	}
	res, err := s.rt.ShipPairs(info.Place, place, pairs, true)
	if err != nil {
		return nil, err
	}
	return &Reader{pairs: res.Pairs, Remote: true}, nil
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
	size := bd.size
	dt.mu.Unlock()
	pairs, err := decodeSpilledBlock(sp)
	if err != nil {
		return nil, fmt.Errorf("spilled block %+v: %w", info, err)
	}
	if h := s.residencyHook(); h != nil && size > 0 && h.RequestReadmit(info, size) {
		installed := false
		dt.mu.Lock()
		if cur, ok := dt.m[info]; ok && cur.spill != nil {
			cur.pairs = pairs
			cur.spill = nil
			installed = true
		}
		dt.mu.Unlock()
		if installed {
			os.Remove(sp.path)
			h.ReadmitCommit(info, size)
		} else {
			// Unreachable under the path-lock discipline (frees and
			// readmits serialize on the entry lock), kept so a future
			// locking change cannot silently corrupt the ledger.
			h.ReadmitAbort(info, size)
		}
	}
	return pairs, nil
}

// SpillBlock moves a resident block's pairs to disk at path in the spill
// record format (compressed per codec), freeing their heap space, and
// returns the accounting size the move released — 0 when the block is
// already spilled, unaccounted, or gone (freed concurrently; the partial
// file is removed). The caller (the residency hook's eviction policy) owns
// releasing the returned reservation. Takes only dataTable mutexes, so it
// is safe to call from within BlockCommitted.
func (s *Store) SpillBlock(info BlockInfo, path string, codec spill.Codec) (int64, error) {
	dt := s.data[info.Place]
	dt.mu.Lock()
	bd := dt.m[info]
	if bd == nil || bd.spill != nil || bd.size == 0 {
		dt.mu.Unlock()
		return 0, nil
	}
	pairs := bd.pairs
	size := bd.size
	dt.mu.Unlock()
	recs, keyClass, valClass, _, err := spill.MarshalRun(pairs)
	if err != nil {
		// Cannot happen for a block that encoded at commit (size > 0); fail
		// loudly rather than silently skipping the victim.
		return 0, fmt.Errorf("kvstore: re-encoding block %+v for spill: %w", info, err)
	}
	enc, err := spill.EncodeRun(recs, codec)
	if err != nil {
		return 0, err
	}
	if _, err := spill.WriteEncodedFile(path, enc); err != nil {
		return 0, err
	}
	dt.mu.Lock()
	cur, ok := dt.m[info]
	if !ok || cur.spill != nil {
		dt.mu.Unlock()
		os.Remove(path)
		return 0, nil
	}
	cur.pairs = nil
	cur.spill = &spilledBlock{path: path, keyClass: keyClass, valClass: valClass}
	dt.mu.Unlock()
	return size, nil
}

// decodeSpilledBlock reads a spilled block's records back into fresh
// writables.
func decodeSpilledBlock(sp spilledBlock) ([]wio.Pair, error) {
	st, err := spill.OpenFile(sp.path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	dec, err := spill.NewPairDecoder(sp.keyClass, sp.valClass)
	if err != nil {
		return nil, err
	}
	var pairs []wio.Pair
	for {
		rec, ok, err := st.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return pairs, nil
		}
		p, err := dec.Decode(rec)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, p)
	}
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
