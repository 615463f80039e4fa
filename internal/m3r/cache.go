// Package m3r implements the paper's engine: an in-memory, non-resilient
// implementation of the HMR API (§3.2). One Engine instance owns a fixed
// set of places (long-lived "JVMs") and runs every job of a sequence on
// them, sharing heap state between jobs through the key/value cache.
package m3r

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
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
}

// NewCache builds a cache over the runtime's places.
func NewCache(rt *x10.Runtime) *Cache {
	return &Cache{store: kvstore.New(rt), rt: rt}
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

// LookupSplit resolves a split against the cache: first by exact split
// name (input cache), then against the output cache of the split's file
// (§3.2.1). ok=false is a cache miss (or an unnameable split, §4.2.1).
//
// Entries without committed blocks are misses: a concurrent job may have
// created the path but not yet closed its writer. Each input-split block
// holds the split's complete pair sequence (PutSplit writes it in one
// block), so exactly one block is read even if concurrent misses on the
// same split raced their inserts.
//
// An error means the entry exists but cannot be mapped (a multi-block entry
// with a missing or malformed pair-count tag): the hit must fail loudly
// rather than silently serve a truncated split.
func (c *Cache) LookupSplit(name string, fileSplit *fileSplitView) (ranges []CachedRange, ok bool, err error) {
	// Exact input-split entry.
	sp := splitPath(name)
	c.store.ViewInfo(sp, func(info kvstore.PathInfo) {
		if !info.Dir && len(info.Blocks) > 0 {
			ranges, ok = []CachedRange{{Path: sp, Block: info.Blocks[0], From: 0, To: -1}}, true
		}
	})
	if ok || fileSplit == nil {
		return ranges, ok, nil
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
			ranges, err = pairRanges(fileSplit.path, info, fileSplit.start, fileSplit.start+fileSplit.length)
			ok = err == nil
			return
		}
		// Disk-backed file: byte offsets do not map to pair indexes, so only a
		// whole-file split can be served from the cache.
		if fileSplit.start == 0 && fileSplit.wholeFile {
			ranges = make([]CachedRange, 0, len(info.Blocks))
			for _, b := range info.Blocks {
				ranges = append(ranges, CachedRange{Path: fileSplit.path, Block: b, From: 0, To: -1})
			}
			ok = true
		}
	})
	if err != nil {
		return nil, false, err
	}
	return ranges, ok, nil
}

// fileSplitView is the cache's view of a FileSplit.
type fileSplitView struct {
	path      string
	start     int64
	length    int64
	wholeFile bool
}

// pairRanges maps the pair-index interval [from, to) onto block ranges.
func pairRanges(path string, info kvstore.PathInfo, from, to int64) ([]CachedRange, error) {
	var out []CachedRange
	var off int64
	for _, b := range info.Blocks {
		n, err := blockPairs(info, b)
		if err != nil {
			return nil, err
		}
		lo, hi := maxI64(from-off, 0), minI64(to-off, n)
		if lo < hi {
			out = append(out, CachedRange{Path: path, Block: b, From: lo, To: hi})
		}
		off += n
	}
	return out, nil
}

// blockPairs returns one block's pair count. The store tracks only the
// path total, so block sizes ride in the BlockInfo tag ("n=<count>"). A
// multi-block entry with a missing or malformed tag is a loud error — the
// caller is about to map pair indexes onto blocks, and treating the block
// as empty would silently drop its pairs from cached splits.
func blockPairs(info kvstore.PathInfo, b kvstore.BlockInfo) (int64, error) {
	if s, ok := strings.CutPrefix(b.Tag, "n="); ok {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n >= 0 {
			return n, nil
		}
	}
	// Single-block fallback.
	if len(info.Blocks) == 1 {
		return info.Pairs, nil
	}
	return 0, fmt.Errorf("m3r: cache entry %s: block seq=%d at place %d has missing or malformed pair-count tag %q (%d blocks)",
		info.Path, b.Seq, b.Place, b.Tag, len(info.Blocks))
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ReadRanges materializes the pairs of the given ranges at place. Blocks
// homed at place are aliased; remote blocks pay a real serialize/ship/
// deserialize round trip (which partition stability exists to avoid).
func (c *Cache) ReadRanges(place int, ranges []CachedRange) ([]wio.Pair, bool, error) {
	var out []wio.Pair
	remote := false
	for _, r := range ranges {
		reader, err := c.store.CreateReader(place, r.Path, r.Block)
		if err != nil {
			return nil, false, err
		}
		pairs := reader.Pairs()
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
		out = append(out, pairs[from:to]...)
		remote = remote || reader.Remote
	}
	return out, remote, nil
}

// PutSplit installs the pairs of a freshly read split into the input cache
// at place, as a single complete block. Jobs racing on the same cold split
// may each insert a block; that is benign — every block holds the split's
// complete pair sequence, LookupSplit reads exactly one, and no block a
// concurrent planner has resolved is ever invalidated by an insert.
func (c *Cache) PutSplit(place int, name string, pairs []wio.Pair) error {
	sp := splitPath(name)
	if err := c.store.Mkdirs(dfs.Parent(sp)); err != nil {
		return err
	}
	w, err := c.store.CreateWriter(place, sp, "n="+strconv.Itoa(len(pairs)))
	if err != nil {
		return err
	}
	w.AppendAll(pairs)
	_, err = w.Close()
	return err
}

// OutputWriter accumulates one output file's pairs at a place.
type OutputWriter struct {
	cache *Cache
	w     *kvstore.Writer
	path  string
	count int64
	temp  bool
}

// NewOutputWriter opens the output cache entry for path at place. temp
// marks the entry cache-only (§4.2.3).
func (c *Cache) NewOutputWriter(place int, path string, temp bool) (*OutputWriter, error) {
	path = dfs.CleanPath(path)
	if err := c.store.Mkdirs(dfs.Parent(path)); err != nil {
		return nil, err
	}
	// Replace any stale entry for the same path.
	if err := c.store.Delete(path); err != nil {
		return nil, err
	}
	w, err := c.store.CreateWriter(place, path, "")
	if err != nil {
		return nil, err
	}
	return &OutputWriter{cache: c, w: w, path: path, temp: temp}, nil
}

// Append adds one pair to the cached file.
func (o *OutputWriter) Append(p wio.Pair) {
	o.w.Append(p)
	o.count++
}

// Close commits the cache entry.
func (o *OutputWriter) Close() error {
	// The block tag records the pair count for pair-space split mapping.
	o.w.SetTag("n=" + strconv.FormatInt(o.count, 10))
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
	sp, dp := dfs.CleanPath(splitsRoot+src), dfs.CleanPath(splitsRoot+dst)
	if c.store.Exists(sp) {
		if err := c.store.Mkdirs(dfs.Parent(dp)); err != nil {
			return err
		}
		return c.store.Rename(sp, dp)
	}
	return nil
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
		r, err := c.store.CreateReader(b.Place, dfs.CleanPath(path), b)
		if err != nil {
			return nil, false, fmt.Errorf("m3r: cache read %s: %w", path, err)
		}
		out = append(out, r.Pairs()...)
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

// Rename implements dfs.FileSystem: applied to both cache and backing.
func (f *CachingFileSystem) Rename(src, dst string) error {
	if err := f.cache.Move(src, dst); err != nil {
		return err
	}
	err := f.backing.Rename(src, dst)
	if errors.Is(err, dfs.ErrNotFound) && !f.backing.Exists(dfs.CleanPath(src)) {
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
	seen := make(map[string]bool)
	var out []dfs.FileStatus
	if sts, err := f.backing.List(path); err == nil {
		for _, st := range sts {
			seen[st.Path] = true
			out = append(out, st)
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
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
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
func (c *Cache) blockLocations(path string, start, length int64) (out []dfs.BlockLocation, err error) {
	file := false
	c.store.ViewInfo(path, func(info kvstore.PathInfo) {
		if info.Dir {
			return
		}
		file = true
		var off int64
		for _, b := range info.Blocks {
			n, berr := blockPairs(info, b)
			if berr != nil {
				out, err = nil, berr
				return
			}
			if off+n > start && off < start+length {
				out = append(out, dfs.BlockLocation{
					Offset: off,
					Length: n,
					Hosts:  []string{c.rt.Place(b.Place).Host()},
				})
			}
			off += n
		}
	})
	if !file {
		return nil, fmt.Errorf("m3r: cache locations %s: %w", path, dfs.ErrNotFound)
	}
	return out, err
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
