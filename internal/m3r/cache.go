// Package m3r implements the paper's engine: an in-memory, non-resilient
// implementation of the HMR API (§3.2). One Engine instance owns a fixed
// set of places (long-lived "JVMs") and runs every job of a sequence on
// them, sharing heap state between jobs through the key/value cache.
package m3r

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/hmrext"
	"m3r/internal/kvstore"
	"m3r/internal/wio"
	"m3r/internal/x10"
)

// Cache store-path layout: output files are cached under their own path;
// input splits are cached under splitsRoot+file+"/"+"start+len", so that
// deleting or renaming a file transparently applies to its split entries
// by prefix (§3.2.1: "deleting a file from the filesystem causes it to
// transparently be removed from the cache").
const (
	splitsRoot = "/.m3r-splits"
	// attrCacheOnly marks paths whose data exists only in the cache
	// (temporary outputs, §4.2.3).
	attrCacheOnly = conf.KeyM3RCacheOnly
)

// Cache is the engine's input/output key/value cache over the distributed
// store of §5.2.
type Cache struct {
	store *kvstore.Store
	rt    *x10.Runtime
	hosts [][]string // hosts[p] is place p's host, the Hosts of a block homed there
}

// NewCache builds a cache over the runtime's places.
func NewCache(rt *x10.Runtime) *Cache {
	hosts := make([][]string, rt.NumPlaces())
	for p := range hosts {
		hosts[p] = []string{rt.Place(p).Host()}
	}
	return &Cache{store: kvstore.New(rt), rt: rt, hosts: hosts}
}

// Store exposes the underlying kvstore (used by tests and cache queries).
func (c *Cache) Store() *kvstore.Store { return c.store }

// splitPath maps a split name ("/file:start+len" or an arbitrary
// NamedSplit name) to its store path.
func splitPath(name string) string {
	// FileSplit names are "path:start+len"; split the suffix off so the
	// store path nests under the file's directory entry.
	if i := strings.LastIndexByte(name, ':'); i > 0 {
		return dfs.CleanPath(splitsRoot + name[:i] + "/" + name[i+1:])
	}
	return dfs.CleanPath(splitsRoot + "/named/" + strings.ReplaceAll(name, "/", "_"))
}

// CachedRange identifies a slice of one cached block's pairs. From/To are
// pair indexes; To = -1 means "to the end of the block".
type CachedRange struct {
	Path  string
	Block kvstore.BlockInfo
	From  int64
	To    int64
}

// lookupSplit resolves the split at store path sp against the cache: first
// by exact split entry (input cache), then against the output cache of the
// split's file (§3.2.1). ok=false is a cache miss (or an unnameable split,
// §4.2.1). A hit's ranges are appended to dst, so a planner can keep every
// split's in one slice.
//
// Entries without committed blocks are misses: a concurrent job may have
// created the path but not yet closed its writer. Each input-split block
// holds the split's complete pair sequence (putSplit writes it in one
// block), so exactly one block is read even if concurrent misses on the
// same split raced their inserts.
func (c *Cache) lookupSplit(dst []CachedRange, sp string, fileSplit *fileSplitView) (ranges []CachedRange, ok bool) {
	ranges = dst
	// Exact input-split entry.
	c.store.ViewInfo(sp, func(info kvstore.PathInfo) {
		if !info.Dir && len(info.Blocks) > 0 {
			ranges, ok = append(ranges, CachedRange{Path: sp, Block: info.Blocks[0], From: 0, To: -1}), true
		}
	})
	if ok || fileSplit == nil {
		return ranges, ok
	}
	// Output cache: the file was produced (and cached) by an earlier job.
	c.store.ViewInfo(fileSplit.path, func(info kvstore.PathInfo) {
		if info.Dir || len(info.Blocks) == 0 {
			return
		}
		if info.Attrs[attrCacheOnly] != "" {
			// Cache-only files live in a synthetic "pair index" byte space
			// (their FileStatus.Size is the pair count), so any split range
			// maps exactly onto pair ranges across the blocks.
			ranges, ok = appendPairRanges(ranges, fileSplit.path, info, fileSplit.start, fileSplit.start+fileSplit.length), true
			return
		}
		// Disk-backed file: byte offsets do not map to pair indexes, so only a
		// whole-file split can be served from the cache.
		if fileSplit.start == 0 && fileSplit.wholeFile {
			for _, b := range info.Blocks {
				ranges = append(ranges, CachedRange{Path: fileSplit.path, Block: b, From: 0, To: -1})
			}
			ok = true
		}
	})
	return ranges, ok
}

// fileSplitView is the cache's view of a FileSplit.
type fileSplitView struct {
	path      string
	start     int64
	length    int64
	wholeFile bool
}

// appendPairRanges appends the block ranges the pair-index interval
// [from, to) maps onto.
func appendPairRanges(out []CachedRange, path string, info kvstore.PathInfo, from, to int64) []CachedRange {
	var off int64
	for _, b := range info.Blocks {
		lo, hi := max(from-off, 0), min(to-off, b.Pairs)
		if lo < hi {
			out = append(out, CachedRange{Path: path, Block: b, From: lo, To: hi})
		}
		off += b.Pairs
	}
	return out
}

// ReadRanges materializes the pairs of the given ranges at place. Blocks
// homed at place are aliased; remote blocks pay a real serialize/ship/
// deserialize round trip (which partition stability exists to avoid).
//
// The result is for reading only. One range comes back as a view of the
// block's own pairs, its capacity clipped to its length so that an append
// copies; several are copied into one slice.
func (c *Cache) ReadRanges(place int, ranges []CachedRange) ([]wio.Pair, bool, error) {
	var buf [4][]wio.Pair
	parts := buf[:0]
	remote, total := false, 0
	for _, r := range ranges {
		pairs, crossed, err := c.store.ReadPairs(place, r.Path, r.Block)
		if err != nil {
			return nil, false, err
		}
		to := r.To
		if to < 0 || to > int64(len(pairs)) {
			to = int64(len(pairs))
		}
		from := r.From
		if from < 0 {
			from = 0
		}
		if from > to {
			from = to
		}
		parts = append(parts, pairs[from:to:to])
		total += int(to - from)
		remote = remote || crossed
	}
	if len(parts) == 1 {
		return parts[0], remote, nil
	}
	out := make([]wio.Pair, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, remote, nil
}

// putSplit installs the pairs of a freshly read split into the input cache
// at place, as a single complete block at store path sp. Jobs racing on the
// same cold split may each insert a block; that is benign — every block
// holds the split's complete pair sequence, lookupSplit reads exactly one,
// and no block a concurrent planner has resolved is ever invalidated by an
// insert.
func (c *Cache) putSplit(place int, sp string, pairs []wio.Pair) error {
	w, err := c.store.CreateWriter(place, sp, "")
	if err != nil {
		return err
	}
	w.AppendAll(pairs)
	_, err = w.Close()
	return err
}

// OutputWriter accumulates one output file's pairs at a place. It holds
// the store's writer by value, so opening one allocates only the entry.
type OutputWriter struct {
	cache *Cache
	w     kvstore.Writer
	path  string
	temp  bool
}

// NewOutputWriter opens the output cache entry for path at place. temp
// marks the entry cache-only (§4.2.3).
func (c *Cache) NewOutputWriter(place int, path string, temp bool) (*OutputWriter, error) {
	o := new(OutputWriter)
	if err := c.openOutput(o, place, path, temp); err != nil {
		return nil, err
	}
	return o, nil
}

// openOutput is NewOutputWriter into o, for an owner that holds the writer
// by value.
func (c *Cache) openOutput(o *OutputWriter, place int, path string, temp bool) error {
	path = dfs.CleanPath(path)
	// Replace any stale entry for the same path.
	if err := c.store.Delete(path); err != nil {
		return err
	}
	*o = OutputWriter{cache: c, path: path, temp: temp}
	return c.store.OpenWriter(&o.w, place, path, "")
}

// Append adds one pair to the cached file.
func (o *OutputWriter) Append(p wio.Pair) { o.w.Append(p) }

// Grow makes room for n more pairs.
func (o *OutputWriter) Grow(n int) { o.w.Grow(n) }

// Close commits the cache entry.
func (o *OutputWriter) Close() error {
	if _, err := o.w.Close(); err != nil {
		return err
	}
	if o.temp {
		if err := o.cache.store.SetAttr(o.path, attrCacheOnly, "1"); err != nil {
			return err
		}
	}
	return nil
}

// Abort discards the entry of a writer whose task failed: a partially
// written output must not be served as a cache hit to later jobs.
func (o *OutputWriter) Abort() error {
	return o.cache.store.Delete(o.path)
}

// Drop removes path (file or directory) and all its split entries from the
// cache, the interception applied on FileSystem.delete (§3.2.1).
func (c *Cache) Drop(path string) error {
	path = dfs.CleanPath(path)
	if err := c.store.Delete(path); err != nil {
		return err
	}
	return c.store.Delete(dfs.CleanPath(splitsRoot + path))
}

// Move renames path (and its split entries) inside the cache, the
// interception applied on FileSystem.rename.
func (c *Cache) Move(src, dst string) error {
	src, dst = dfs.CleanPath(src), dfs.CleanPath(dst)
	if err := c.store.Rename(src, dst); err != nil {
		return err
	}
	return c.store.Rename(dfs.CleanPath(splitsRoot+src), dfs.CleanPath(splitsRoot+dst))
}

// pairIterator iterates the concatenated pairs of a path's blocks.
type pairIterator struct {
	pairs []wio.Pair
	pos   int
}

// Next implements hmrext.PairIterator.
func (it *pairIterator) Next() (wio.Pair, bool) {
	if it.pos >= len(it.pairs) {
		return wio.Pair{}, false
	}
	p := it.pairs[it.pos]
	it.pos++
	return p, true
}

// PathPairs returns all cached pairs for path, aliased from their home
// blocks (used by cache queries, §4.2.4). ok=false means path is not a
// cached file; a non-nil error is a real read failure on an entry that IS
// cached (a block vanished under a racing delete, a spilled block failed to
// decode) — distinct from a miss, so callers never mistake a broken read
// for "not cached".
func (c *Cache) PathPairs(path string) ([]wio.Pair, bool, error) {
	info, ok := c.store.GetInfo(dfs.CleanPath(path))
	if !ok || info.Dir {
		return nil, false, nil
	}
	var out []wio.Pair
	for _, b := range info.Blocks {
		pairs, _, err := c.store.ReadPairs(b.Place, dfs.CleanPath(path), b)
		if err != nil {
			return nil, false, fmt.Errorf("m3r: cache read %s: %w", path, err)
		}
		out = append(out, pairs...)
	}
	return out, true, nil
}

// CachingFileSystem wraps the engine's backing filesystem and keeps the
// cache coherent with it: deletes and renames apply to both, metadata
// queries see the union, and cache-only files (temporary outputs) are fully
// visible even though no bytes exist on the backing store (§3.2.1, §4.2.3).
// It implements hmrext.CacheFS for explicit cache interaction (§4.2.4).
type CachingFileSystem struct {
	backing dfs.FileSystem
	cache   *Cache
	rt      *x10.Runtime
}

var (
	_ dfs.FileSystem = (*CachingFileSystem)(nil)
	_ hmrext.CacheFS = (*CachingFileSystem)(nil)
)

// NewCachingFileSystem wraps backing with cache coherence.
func NewCachingFileSystem(backing dfs.FileSystem, cache *Cache, rt *x10.Runtime) *CachingFileSystem {
	return &CachingFileSystem{backing: backing, cache: cache, rt: rt}
}

// Backing returns the wrapped filesystem.
func (f *CachingFileSystem) Backing() dfs.FileSystem { return f.backing }

// Cache returns the cache this filesystem keeps coherent.
func (f *CachingFileSystem) Cache() *Cache { return f.cache }

// Create implements dfs.FileSystem (pass-through: byte-level writes do not
// enter the pair cache; see paper footnote 3).
func (f *CachingFileSystem) Create(path string) (io.WriteCloser, error) {
	return f.backing.Create(path)
}

// CreateOn implements dfs.FileSystem.
func (f *CachingFileSystem) CreateOn(path, host string) (io.WriteCloser, error) {
	return f.backing.CreateOn(path, host)
}

// Open implements dfs.FileSystem. Cache-only files have no bytes to read.
func (f *CachingFileSystem) Open(path string) (dfs.File, error) {
	file, err := f.backing.Open(path)
	if err == nil {
		return file, nil
	}
	if info, ok := f.cache.store.GetInfo(dfs.CleanPath(path)); ok && info.Attrs[attrCacheOnly] != "" {
		return nil, fmt.Errorf("m3r: %s exists only in the key/value cache; use CacheFS.GetCacheRecordReader (cf. paper fn. 3): %w", path, err)
	}
	return nil, err
}

// Delete implements dfs.FileSystem: applied to both cache and backing.
func (f *CachingFileSystem) Delete(path string, recursive bool) error {
	if err := f.cache.Drop(path); err != nil {
		return err
	}
	err := f.backing.Delete(path, recursive)
	// Deleting something that only existed in the cache is fine.
	if errors.Is(err, dfs.ErrNotFound) {
		return nil
	}
	return err
}

// Rename implements dfs.FileSystem: applied to both cache and backing. A
// source that neither holds is the backing store's not-found error, as it
// is without the cache.
func (f *CachingFileSystem) Rename(src, dst string) error {
	cached := f.cache.store.Exists(src)
	if err := f.cache.Move(src, dst); err != nil {
		return err
	}
	err := f.backing.Rename(src, dst)
	if cached && errors.Is(err, dfs.ErrNotFound) && !f.backing.Exists(dfs.CleanPath(src)) {
		// Cache-only rename.
		return nil
	}
	return err
}

// Mkdirs implements dfs.FileSystem.
func (f *CachingFileSystem) Mkdirs(path string) error {
	if err := f.cache.store.Mkdirs(dfs.CleanPath(path)); err != nil {
		return err
	}
	return f.backing.Mkdirs(path)
}

// Stat implements dfs.FileSystem over the union. Cache-only files report
// their pair count as size (a synthetic byte space; split ranges over it
// are resolved back to pair ranges by the cache). The cache is asked first:
// a cache-only file has no bytes on the backing store, so it costs the
// backing store no call and no not-found error.
func (f *CachingFileSystem) Stat(path string) (dfs.FileStatus, error) {
	path = dfs.CleanPath(path)
	var pairs int64
	var dir, cacheOnly bool
	cached := f.cache.store.ViewInfo(path, func(info kvstore.PathInfo) {
		pairs, dir, cacheOnly = info.Pairs, info.Dir, info.Attrs[attrCacheOnly] != ""
	})
	if !cacheOnly {
		if st, err := f.backing.Stat(path); err == nil {
			return st, nil
		}
		if !cached {
			return dfs.FileStatus{}, fmt.Errorf("m3r: stat %s: %w", path, dfs.ErrNotFound)
		}
	}
	return dfs.FileStatus{
		Path:        path,
		Size:        pairs,
		IsDir:       dir,
		ModTime:     time.Time{},
		BlockSize:   pairs,
		Replication: 1,
	}, nil
}

// Exists implements dfs.FileSystem over the union.
func (f *CachingFileSystem) Exists(path string) bool {
	return f.backing.Exists(path) || f.cache.store.Exists(dfs.CleanPath(path))
}

// List implements dfs.FileSystem over the union.
func (f *CachingFileSystem) List(path string) ([]dfs.FileStatus, error) {
	var seen map[string]bool // made only when the backing store lists something
	out, err := f.backing.List(path)
	if err != nil {
		out = nil
	} else if len(out) > 0 {
		seen = make(map[string]bool, len(out))
		for _, st := range out {
			seen[st.Path] = true
		}
	}
	for _, child := range f.cache.store.Children(dfs.CleanPath(path)) {
		if seen[child] {
			continue
		}
		st, err := f.Stat(child)
		if err == nil {
			out = append(out, st)
		}
	}
	if out == nil && !f.Exists(path) {
		return nil, fmt.Errorf("m3r: list %s: %w", path, dfs.ErrNotFound)
	}
	slices.SortFunc(out, func(a, b dfs.FileStatus) int { return strings.Compare(a.Path, b.Path) })
	return out, nil
}

// BlockLocations implements dfs.FileSystem. For cache-only files each
// cached block is one location hosted at its home place's node.
func (f *CachingFileSystem) BlockLocations(path string, start, length int64) ([]dfs.BlockLocation, error) {
	if f.backing.Exists(dfs.CleanPath(path)) {
		return f.backing.BlockLocations(path, start, length)
	}
	return f.cache.blockLocations(path, start, length)
}

// blockLocations returns the locations of a cached file's blocks that
// overlap [start, start+length) of its pair-index space, each hosted at its
// home place's node. A missing path or a directory is dfs.ErrNotFound.
// Every location homed at one place shares that place's Hosts slice.
func (c *Cache) blockLocations(path string, start, length int64) ([]dfs.BlockLocation, error) {
	var out []dfs.BlockLocation
	file := false
	c.store.ViewInfo(path, func(info kvstore.PathInfo) {
		if info.Dir {
			return
		}
		file = true
		var off int64
		for _, b := range info.Blocks {
			if off+b.Pairs > start && off < start+length {
				if out == nil {
					out = make([]dfs.BlockLocation, 0, len(info.Blocks))
				}
				out = append(out, dfs.BlockLocation{Offset: off, Length: b.Pairs, Hosts: c.hosts[b.Place]})
			}
			off += b.Pairs
		}
	})
	if !file {
		return nil, fmt.Errorf("m3r: cache locations %s: %w", path, dfs.ErrNotFound)
	}
	return out, nil
}

// GetRawCache implements hmrext.CacheFS (§4.2.3): the returned filesystem's
// operations touch only the cache.
func (f *CachingFileSystem) GetRawCache() dfs.FileSystem {
	return &rawCacheFS{cache: f.cache}
}

// GetCacheRecordReader implements hmrext.CacheFS (§4.2.4). ok=false is a
// cache miss; a non-nil error is a real read failure on a cached entry.
func (f *CachingFileSystem) GetCacheRecordReader(path string) (hmrext.PairIterator, bool, error) {
	pairs, ok, err := f.cache.PathPairs(path)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	return &pairIterator{pairs: pairs}, true, nil
}

// CacheOutput implements mapred.OutputCacher: library code (e.g.
// MultipleOutputs) installs file contents it wrote record-by-record. The
// entry's blocks are homed at the writing task's place, preserving block
// homing and partition stability for side files exactly as for main output.
func (f *CachingFileSystem) CacheOutput(place int, path string, pairs []wio.Pair) error {
	if place < 0 || place >= f.rt.NumPlaces() {
		return fmt.Errorf("m3r: cache output %s: place %d out of range (%d places)", path, place, f.rt.NumPlaces())
	}
	w, err := f.cache.NewOutputWriter(place, path, false)
	if err != nil {
		return err
	}
	for _, p := range pairs {
		w.Append(p)
	}
	return w.Close()
}

// rawCacheFS is the synthetic cache-only filesystem of §4.2.3.
type rawCacheFS struct {
	cache *Cache
}

func (r *rawCacheFS) Create(string) (io.WriteCloser, error) {
	return nil, fmt.Errorf("m3r: raw cache filesystem does not support byte-level creates")
}

func (r *rawCacheFS) CreateOn(string, string) (io.WriteCloser, error) {
	return nil, fmt.Errorf("m3r: raw cache filesystem does not support byte-level creates")
}

func (r *rawCacheFS) Open(string) (dfs.File, error) {
	return nil, fmt.Errorf("m3r: raw cache filesystem does not support byte-level reads")
}

func (r *rawCacheFS) Delete(path string, _ bool) error { return r.cache.Drop(path) }

func (r *rawCacheFS) Rename(src, dst string) error { return r.cache.Move(src, dst) }

func (r *rawCacheFS) Mkdirs(path string) error {
	return r.cache.store.Mkdirs(dfs.CleanPath(path))
}

func (r *rawCacheFS) Stat(path string) (dfs.FileStatus, error) {
	st := dfs.FileStatus{Path: dfs.CleanPath(path)}
	if !r.cache.store.ViewInfo(st.Path, func(info kvstore.PathInfo) { st.Size, st.IsDir = info.Pairs, info.Dir }) {
		return dfs.FileStatus{}, fmt.Errorf("m3r: cache stat %s: %w", path, dfs.ErrNotFound)
	}
	return st, nil
}

func (r *rawCacheFS) Exists(path string) bool {
	return r.cache.store.Exists(dfs.CleanPath(path))
}

func (r *rawCacheFS) List(path string) ([]dfs.FileStatus, error) {
	if !r.Exists(path) {
		return nil, fmt.Errorf("m3r: cache list %s: %w", path, dfs.ErrNotFound)
	}
	var out []dfs.FileStatus
	for _, c := range r.cache.store.Children(dfs.CleanPath(path)) {
		st, err := r.Stat(c)
		if err == nil {
			out = append(out, st)
		}
	}
	return out, nil
}

func (r *rawCacheFS) BlockLocations(path string, start, length int64) ([]dfs.BlockLocation, error) {
	return r.cache.blockLocations(path, start, length)
}
