package dfs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"m3r/internal/sim"
)

// HDFS simulates a Hadoop distributed filesystem inside one process.
//
// The namenode's role — path metadata, block lists, placement, replication
// factor — is played by an in-memory inode table. The datanodes' role is
// played by real files on local disk (one file per block), so every byte a
// job reads or writes through HDFS incurs genuine I/O and buffering work.
// What cannot exist in-process is modelled through sim.CostModel: the
// network cost of writing replicas and of non-local reads.
//
// Block placement is round-robin over the configured hosts unless the
// writer supplies a locality hint (CreateOn), in which case the first
// replica lands on the writing host, as in HDFS.
type HDFS struct {
	mu          sync.RWMutex
	root        string
	hosts       []string
	blockSize   int64
	replication int
	files       map[string]*inode
	nextBlockID int64
	nextHost    int

	stats *sim.Stats
	cost  *sim.CostModel
}

type inode struct {
	dir    bool
	blocks []hdfsBlock
	size   int64
	mtime  time.Time
}

type hdfsBlock struct {
	id     int64
	length int64
	hosts  []string
}

// HDFSOptions configures a simulated HDFS.
type HDFSOptions struct {
	// Root is the local directory that holds block files. Required.
	Root string
	// Hosts are the datanode host names; defaults to ["node0"].
	Hosts []string
	// BlockSize defaults to 4 MiB (a scaled-down HDFS 64 MiB block).
	BlockSize int64
	// Replication defaults to 1; values >1 charge modelled network cost.
	Replication int
	// Stats and Cost may be nil (no accounting, no modelled delay).
	Stats *sim.Stats
	Cost  *sim.CostModel
}

// NewHDFS creates a simulated HDFS storing blocks under opts.Root.
func NewHDFS(opts HDFSOptions) (*HDFS, error) {
	if opts.Root == "" {
		return nil, fmt.Errorf("dfs: HDFS requires a root directory")
	}
	if err := os.MkdirAll(opts.Root, 0o755); err != nil {
		return nil, fmt.Errorf("dfs: creating HDFS root: %w", err)
	}
	hosts := opts.Hosts
	if len(hosts) == 0 {
		hosts = []string{"node0"}
	}
	bs := opts.BlockSize
	if bs <= 0 {
		bs = 4 << 20
	}
	repl := opts.Replication
	if repl <= 0 {
		repl = 1
	}
	if repl > len(hosts) {
		repl = len(hosts)
	}
	cost := opts.Cost
	if cost == nil {
		cost = sim.Zero()
	}
	h := &HDFS{
		root:        opts.Root,
		hosts:       hosts,
		blockSize:   bs,
		replication: repl,
		files:       map[string]*inode{"/": {dir: true, mtime: time.Now()}},
		stats:       opts.Stats,
		cost:        cost,
	}
	return h, nil
}

// Hosts returns the datanode host names.
func (h *HDFS) Hosts() []string { return h.hosts }

// BlockSize returns the configured block size.
func (h *HDFS) BlockSize() int64 { return h.blockSize }

func (h *HDFS) blockPath(id int64) string {
	return filepath.Join(h.root, fmt.Sprintf("blk_%08d", id))
}

// mkdirsLocked inserts directory inodes for path and its ancestors. The
// caller holds h.mu.
func (h *HDFS) mkdirsLocked(path string) error {
	for a := range AncestorsOf(path) {
		node, ok := h.files[a]
		if !ok {
			h.files[a] = &inode{dir: true, mtime: time.Now()}
			continue
		}
		if !node.dir {
			return fmt.Errorf("dfs: mkdirs %s: %w at %s", path, ErrExists, a)
		}
	}
	return nil
}

// Mkdirs implements FileSystem.
func (h *HDFS) Mkdirs(path string) error {
	path = CleanPath(path)
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.mkdirsLocked(path)
}

// Create implements FileSystem.
func (h *HDFS) Create(path string) (io.WriteCloser, error) {
	return h.CreateOn(path, "")
}

// CreateOn implements FileSystem with a placement hint.
func (h *HDFS) CreateOn(path, host string) (io.WriteCloser, error) {
	path = CleanPath(path)
	h.mu.Lock()
	defer h.mu.Unlock()
	if node, ok := h.files[path]; ok {
		if node.dir {
			return nil, fmt.Errorf("dfs: create %s: %w", path, ErrIsDirectory)
		}
		return nil, fmt.Errorf("dfs: create %s: %w", path, ErrExists)
	}
	if err := h.mkdirsLocked(Parent(path)); err != nil {
		return nil, err
	}
	// Reserve the path (zero-length file) so concurrent creates conflict
	// immediately, like a namenode lease.
	h.files[path] = &inode{mtime: time.Now()}
	return &hdfsWriter{fs: h, path: path, hint: host}, nil
}

// hdfsWriter streams a file into block files: each block is written to its
// own file through a pooled bufio.Writer as the bytes arrive, so a block is
// buffered once (blockWriteBuf bytes of it at a time) instead of being
// assembled whole in memory before it is written.
type hdfsWriter struct {
	fs     *HDFS
	path   string
	hint   string
	blocks []hdfsBlock // completed blocks
	size   int64
	closed bool
	err    error // first write failure; sticky

	// The block being written, f == nil between blocks.
	f  *os.File
	bw *bufio.Writer
	id int64
	n  int64 // bytes of the current block so far
}

// blockWriteBuf is the size of the pooled buffers block files are written
// through: large enough that a default 256 KiB block costs a handful of
// write calls, small next to any block.
const blockWriteBuf = 64 << 10

var blockWriters = sync.Pool{New: func() any {
	return bufio.NewWriterSize(nil, blockWriteBuf)
}}

// Write implements io.Writer, cutting block files at block-size boundaries.
func (w *hdfsWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("dfs: write to closed file %s", w.path)
	}
	if w.err != nil {
		return 0, w.err
	}
	total := len(p)
	for len(p) > 0 {
		if w.f == nil {
			if err := w.openBlock(); err != nil {
				return 0, w.fail(err)
			}
		}
		chunk := p
		if room := w.fs.blockSize - w.n; int64(len(chunk)) > room {
			chunk = chunk[:room]
		}
		if _, err := w.bw.Write(chunk); err != nil {
			return 0, w.fail(fmt.Errorf("dfs: writing block: %w", err))
		}
		w.n += int64(len(chunk))
		p = p[len(chunk):]
		if w.n == w.fs.blockSize {
			if err := w.finishBlock(); err != nil {
				return 0, w.fail(err)
			}
		}
	}
	return total, nil
}

// openBlock starts the next block file.
func (w *hdfsWriter) openBlock() error {
	w.fs.mu.Lock()
	id := w.fs.nextBlockID
	w.fs.nextBlockID++
	w.fs.mu.Unlock()
	f, err := os.Create(w.fs.blockPath(id))
	if err != nil {
		return fmt.Errorf("dfs: writing block: %w", err)
	}
	w.f, w.id, w.n = f, id, 0
	w.bw = blockWriters.Get().(*bufio.Writer)
	w.bw.Reset(f)
	return nil
}

// releaseBlockFile closes the current block file and returns the pooled
// buffer, whatever the outcome; with flush false the buffered bytes are
// dropped (the block is being discarded).
func (w *hdfsWriter) releaseBlockFile(flush bool) error {
	var err error
	if flush {
		err = w.bw.Flush()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.bw.Reset(nil)
	blockWriters.Put(w.bw)
	w.f, w.bw = nil, nil
	return err
}

// finishBlock completes the current block: its file is flushed and closed,
// its replicas are placed and charged — per completed block, as the bytes
// reach the datanodes.
func (w *hdfsWriter) finishBlock() error {
	if err := w.releaseBlockFile(true); err != nil {
		os.Remove(w.fs.blockPath(w.id))
		return fmt.Errorf("dfs: writing block: %w", err)
	}
	w.fs.mu.Lock()
	hosts := w.fs.placeBlock(w.hint)
	w.fs.mu.Unlock()
	n := w.n
	w.fs.stats.Add(sim.HDFSWriteBytes, n)
	// Replicas cross the network; the pipeline also pays disk on each.
	w.fs.cost.ChargeDisk(w.fs.stats, n*int64(len(hosts)))
	if len(hosts) > 1 {
		w.fs.cost.ChargeNet(w.fs.stats, n*int64(len(hosts)-1))
	}
	w.blocks = append(w.blocks, hdfsBlock{id: w.id, length: n, hosts: hosts})
	w.size += n
	return nil
}

// fail records the writer's first error and discards what it has written:
// the open block's descriptor and buffer are released and every block file
// of this never-to-be-committed file is removed.
func (w *hdfsWriter) fail(err error) error {
	w.err = err
	if w.f != nil {
		_ = w.releaseBlockFile(false) // err, the failure that got us here, is the one reported
		os.Remove(w.fs.blockPath(w.id))
	}
	w.removeBlocks()
	return err
}

func (w *hdfsWriter) removeBlocks() {
	for _, b := range w.blocks {
		os.Remove(w.fs.blockPath(b.id))
	}
	w.blocks = nil
}

// placeBlock chooses replica hosts; caller holds fs.mu.
func (h *HDFS) placeBlock(hint string) []string {
	primary := -1
	if hint != "" {
		for i, host := range h.hosts {
			if host == hint {
				primary = i
				break
			}
		}
	}
	if primary < 0 {
		primary = h.nextHost % len(h.hosts)
		h.nextHost++
	}
	hosts := make([]string, 0, h.replication)
	for i := 0; i < h.replication; i++ {
		hosts = append(hosts, h.hosts[(primary+i)%len(h.hosts)])
	}
	return hosts
}

// Close flushes the final partial block and commits the file metadata.
func (w *hdfsWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if w.f != nil {
		if err := w.finishBlock(); err != nil {
			return w.fail(err)
		}
	}
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	node, ok := w.fs.files[w.path]
	if !ok {
		// Deleted while being written; drop the blocks.
		w.removeBlocks()
		return fmt.Errorf("dfs: %s was deleted during write", w.path)
	}
	node.blocks = w.blocks
	node.size = w.size
	node.mtime = time.Now()
	return nil
}

// Open implements FileSystem.
func (h *HDFS) Open(path string) (File, error) {
	return h.OpenFrom(path, "")
}

// OpenFrom opens a file with a reader-locality hint: reads of blocks that
// have no replica on host are charged modelled network cost.
func (h *HDFS) OpenFrom(path, host string) (File, error) {
	path = CleanPath(path)
	h.mu.RLock()
	node, ok := h.files[path]
	if !ok {
		h.mu.RUnlock()
		return nil, &PathError{"open", path, ErrNotFound}
	}
	if node.dir {
		h.mu.RUnlock()
		return nil, fmt.Errorf("dfs: open %s: %w", path, ErrIsDirectory)
	}
	blocks := make([]hdfsBlock, len(node.blocks))
	copy(blocks, node.blocks)
	size := node.size
	h.mu.RUnlock()
	openReaders.Add(1)
	return &hdfsReader{fs: h, path: path, host: host, blocks: blocks, size: size}, nil
}

// hdfsReader streams a file's block files: it holds the open block's
// descriptor and no buffer. Each read is one ReadAt of the block file
// straight into the caller's slice, cut at the block's end; the record
// readers above it read into windows of their own.
type hdfsReader struct {
	fs     *HDFS
	path   string
	host   string
	blocks []hdfsBlock
	size   int64
	pos    int64
	closed bool

	// The open block, f == nil when none: its index, its file offset and
	// the bytes read of it since the reader moved onto it.
	f    *os.File
	idx  int
	base int64
	read int64
}

// openReaders counts HDFS readers opened but not yet closed. A reader
// holds a block file's descriptor between reads, so an unclosed one leaks
// it; tests pin the count back to its baseline after a job, whatever its
// end.
var openReaders atomic.Int64

// OpenReaderCount reports how many HDFS readers are currently open.
func OpenReaderCount() int64 { return openReaders.Load() }

// locate returns the block index and base offset containing file offset pos.
func (r *hdfsReader) locate(pos int64) (int, int64) {
	off := int64(0)
	for i, b := range r.blocks {
		if pos < off+b.length {
			return i, off
		}
		off += b.length
	}
	return -1, off
}

// inBlock reports whether file offset pos lies in the open block.
func (r *hdfsReader) inBlock(pos int64) bool {
	return r.f != nil && pos >= r.base && pos < r.base+r.blocks[r.idx].length
}

// Read implements io.Reader.
func (r *hdfsReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, fmt.Errorf("dfs: read of closed file %s", r.path)
	}
	if r.pos >= r.size {
		return 0, io.EOF
	}
	if !r.inBlock(r.pos) {
		if err := r.enterBlock(); err != nil {
			return 0, err
		}
	}
	// One ReadAt into p, cut at the block's end.
	left := r.base + r.blocks[r.idx].length - r.pos
	n, err := r.readAt(p[:min(int64(len(p)), left)], r.pos-r.base)
	r.pos += int64(n)
	r.read += int64(n)
	r.fs.stats.Add(sim.HDFSReadBytes, int64(n))
	return n, err
}

// enterBlock opens the block holding r.pos in place of the open one.
func (r *hdfsReader) enterBlock() error {
	r.closeBlock()
	idx, base := r.locate(r.pos)
	if idx < 0 {
		return io.EOF
	}
	b := r.blocks[idx]
	f, err := os.Open(r.fs.blockPath(b.id))
	if err != nil {
		return fmt.Errorf("dfs: reading block of %s: %w", r.path, err)
	}
	r.f, r.idx, r.base = f, idx, base
	return nil
}

// readAt fills p from offset off of the open block file. A file shorter
// than its recorded length is io.ErrUnexpectedEOF, never a short read.
func (r *hdfsReader) readAt(p []byte, off int64) (int, error) {
	n, err := r.f.ReadAt(p, off)
	if n == len(p) {
		return n, nil
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return 0, fmt.Errorf("dfs: reading block of %s: %w", r.path, err)
}

// closeBlock closes the open block file, if any. It charges the block for
// what was read of it: that many bytes of modelled disk time, and of network
// time, one latency included, when no replica is on the reader's host. A
// read of a whole block pays its whole length; a split's header read of
// the first block, a hundred bytes.
func (r *hdfsReader) closeBlock() error {
	if r.f == nil {
		return nil
	}
	r.fs.cost.ChargeDisk(r.fs.stats, r.read)
	if r.host != "" && !hasHost(r.blocks[r.idx].hosts, r.host) {
		r.fs.cost.ChargeNet(r.fs.stats, r.read)
	}
	r.read = 0
	err := r.f.Close()
	r.f = nil
	return err
}

func hasHost(hosts []string, h string) bool {
	for _, x := range hosts {
		if x == h {
			return true
		}
	}
	return false
}

// Seek implements io.Seeker. A position inside the open block keeps it
// open; any other closes it, so the next Read moves onto a block again.
func (r *hdfsReader) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = r.pos + offset
	case io.SeekEnd:
		abs = r.size + offset
	default:
		return 0, fmt.Errorf("dfs: invalid whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("dfs: negative seek position %d", abs)
	}
	r.pos = abs
	if !r.inBlock(abs) {
		r.closeBlock()
	}
	return abs, nil
}

// Close implements io.Closer: the block's descriptor goes back.
func (r *hdfsReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.closeBlock()
	openReaders.Add(-1)
	return err
}

// Delete implements FileSystem.
func (h *HDFS) Delete(path string, recursive bool) error {
	path = CleanPath(path)
	h.mu.Lock()
	defer h.mu.Unlock()
	node, ok := h.files[path]
	if !ok {
		return &PathError{"delete", path, ErrNotFound}
	}
	if node.dir {
		below := h.subtreeLocked(path)
		if len(below) > 0 && !recursive {
			return fmt.Errorf("dfs: delete %s: directory not empty", path)
		}
		for _, c := range below {
			h.removeLocked(c)
		}
	}
	h.removeLocked(path)
	return nil
}

// removeLocked deletes one inode and its block files. Caller holds h.mu.
func (h *HDFS) removeLocked(path string) {
	node, ok := h.files[path]
	if !ok {
		return
	}
	for _, b := range node.blocks {
		os.Remove(h.blockPath(b.id))
	}
	delete(h.files, path)
}

// childrenLocked returns direct children paths. Caller holds h.mu.
func (h *HDFS) childrenLocked(dir string) []string {
	var out []string
	for p := range h.files {
		if IsChild(p, dir) {
			out = AppendListed(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// subtreeLocked returns all strict descendants of dir. Caller holds h.mu.
func (h *HDFS) subtreeLocked(dir string) []string {
	var out []string
	for p := range h.files {
		if IsBelow(p, dir) {
			out = AppendListed(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Rename implements FileSystem. The destination must not exist; the
// destination's parent is created implicitly.
func (h *HDFS) Rename(src, dst string) error {
	src, dst = CleanPath(src), CleanPath(dst)
	h.mu.Lock()
	defer h.mu.Unlock()
	node, ok := h.files[src]
	if !ok {
		return &PathError{"rename", src, ErrNotFound}
	}
	if _, exists := h.files[dst]; exists {
		return fmt.Errorf("dfs: rename to %s: %w", dst, ErrExists)
	}
	if IsAncestor(src, dst) && src != dst {
		return fmt.Errorf("dfs: rename %s into its own subtree %s", src, dst)
	}
	if err := h.mkdirsLocked(Parent(dst)); err != nil {
		return err
	}
	if node.dir {
		for _, p := range h.subtreeLocked(src) {
			np := dst + strings.TrimPrefix(p, src)
			h.files[np] = h.files[p]
			delete(h.files, p)
		}
	}
	h.files[dst] = node
	delete(h.files, src)
	node.mtime = time.Now()
	return nil
}

// Stat implements FileSystem.
func (h *HDFS) Stat(path string) (FileStatus, error) {
	path = CleanPath(path)
	h.mu.RLock()
	defer h.mu.RUnlock()
	node, ok := h.files[path]
	if !ok {
		return FileStatus{}, &PathError{"stat", path, ErrNotFound}
	}
	return FileStatus{
		Path:        path,
		Size:        node.size,
		IsDir:       node.dir,
		ModTime:     node.mtime,
		BlockSize:   h.blockSize,
		Replication: h.replication,
	}, nil
}

// Exists implements FileSystem.
func (h *HDFS) Exists(path string) bool {
	path = CleanPath(path)
	h.mu.RLock()
	defer h.mu.RUnlock()
	_, ok := h.files[path]
	return ok
}

// List implements FileSystem.
func (h *HDFS) List(path string) ([]FileStatus, error) {
	path = CleanPath(path)
	h.mu.RLock()
	defer h.mu.RUnlock()
	node, ok := h.files[path]
	if !ok {
		return nil, &PathError{"list", path, ErrNotFound}
	}
	if !node.dir {
		return []FileStatus{{Path: path, Size: node.size, ModTime: node.mtime,
			BlockSize: h.blockSize, Replication: h.replication}}, nil
	}
	children := h.childrenLocked(path)
	out := make([]FileStatus, 0, len(children))
	for _, c := range children {
		n := h.files[c]
		out = append(out, FileStatus{Path: c, Size: n.size, IsDir: n.dir,
			ModTime: n.mtime, BlockSize: h.blockSize, Replication: h.replication})
	}
	return out, nil
}

// BlockLocations implements FileSystem.
func (h *HDFS) BlockLocations(path string, start, length int64) ([]BlockLocation, error) {
	path = CleanPath(path)
	h.mu.RLock()
	defer h.mu.RUnlock()
	node, ok := h.files[path]
	if !ok {
		return nil, &PathError{"locations", path, ErrNotFound}
	}
	if node.dir {
		return nil, fmt.Errorf("dfs: locations %s: %w", path, ErrIsDirectory)
	}
	// A block's replica hosts never change once it is written, so every
	// location shares its block's slice, capacity-clipped: read-only.
	var out []BlockLocation
	off := int64(0)
	for _, b := range node.blocks {
		if off+b.length > start && off < start+length {
			if out == nil {
				out = make([]BlockLocation, 0, len(node.blocks))
			}
			out = append(out, BlockLocation{Offset: off, Length: b.length, Hosts: b.hosts[:len(b.hosts):len(b.hosts)]})
		}
		off += b.length
	}
	return out, nil
}
