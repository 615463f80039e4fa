// Package dfs defines the filesystem abstraction jobs read from and write
// to, with two implementations: a simulated HDFS (namenode metadata, block
// placement, replication accounting, locality) whose blocks are real files
// on local disk, and a plain local filesystem. The simulation substitutes
// for the paper's HDFS cluster: both engines pay genuine I/O and
// serialization costs through it, and map scheduling can exploit block
// locality the way Hadoop does.
package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"iter"
	"slices"
	"strings"
	"sync"
	"time"
)

// ErrNotFound is returned when a path does not exist.
var ErrNotFound = errors.New("dfs: no such file or directory")

// PathError is an operation's failure on a path, "dfs: <op> <path>: <err>".
// It is formatted only when printed, so a miss its caller merely tests with
// errors.Is — a cache-only path the backing store is asked about — costs one
// allocation, not a formatted message.
type PathError struct {
	Op   string
	Path string
	Err  error
}

func (e *PathError) Error() string { return "dfs: " + e.Op + " " + e.Path + ": " + e.Err.Error() }

// Unwrap returns the cause.
func (e *PathError) Unwrap() error { return e.Err }

// ErrExists is returned when a create/rename target already exists.
var ErrExists = errors.New("dfs: path already exists")

// ErrIsDirectory is returned when a file operation hits a directory.
var ErrIsDirectory = errors.New("dfs: path is a directory")

// File is an open file handle supporting sequential and positioned reads.
type File interface {
	io.Reader
	io.Seeker
	io.Closer
}

// FileStatus describes a path, like Hadoop's FileStatus.
type FileStatus struct {
	Path        string
	Size        int64
	IsDir       bool
	ModTime     time.Time
	BlockSize   int64
	Replication int
}

// BlockLocation describes where one block of a file lives.
type BlockLocation struct {
	Offset int64
	Length int64
	Hosts  []string // shared with the filesystem's own record: read-only
}

// FileSystem is the SPI both engines and all input/output formats use.
// Paths are absolute, slash-separated, and rooted at "/".
type FileSystem interface {
	// Create opens a new file for writing. Parent directories are created
	// implicitly (as in HDFS). Creating over an existing file fails.
	Create(path string) (io.WriteCloser, error)
	// CreateOn is Create with a locality hint: the first replica of each
	// block is placed on host when the filesystem tracks placement.
	CreateOn(path, host string) (io.WriteCloser, error)
	// Open opens an existing file for reading.
	Open(path string) (File, error)
	// Delete removes a path; recursive must be true for non-empty dirs.
	Delete(path string, recursive bool) error
	// Rename moves a file or directory subtree.
	Rename(src, dst string) error
	// Mkdirs creates a directory and any missing ancestors.
	Mkdirs(path string) error
	// Stat describes a path.
	Stat(path string) (FileStatus, error)
	// Exists reports whether the path exists.
	Exists(path string) bool
	// List returns the direct children of a directory, sorted by path.
	List(path string) ([]FileStatus, error)
	// BlockLocations reports which hosts store each block overlapping the
	// byte range [start, start+length).
	BlockLocations(path string, start, length int64) ([]BlockLocation, error)
}

// CleanPath canonicalizes p to an absolute slash path with no trailing
// slash (except the root itself) and no empty or dot segments. A path that
// is already canonical — nearly every call — comes back as it is, after one
// scan and no allocation.
func CleanPath(p string) string {
	if isCanonical(p) {
		return p
	}
	segs := strings.Split(p, "/")
	out := make([]string, 0, len(segs))
	for _, s := range segs {
		switch s {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, s)
		}
	}
	return "/" + strings.Join(out, "/")
}

// isCanonical reports whether CleanPath(p) == p: p is "/" or a slash
// followed by segments none of which is empty, "." or "..".
func isCanonical(p string) bool {
	if p == "/" {
		return true
	}
	if p == "" || p[0] != '/' {
		return false
	}
	for rest := p[1:]; ; {
		seg, tail, more := strings.Cut(rest, "/")
		if seg == "" || seg == "." || seg == ".." {
			return false
		}
		if !more {
			return true
		}
		rest = tail
	}
}

// Parent returns the parent directory of p ("/" for top-level entries).
func Parent(p string) string {
	p = CleanPath(p)
	if p == "/" {
		return "/"
	}
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

// Base returns the final path segment.
func Base(p string) string {
	p = CleanPath(p)
	if p == "/" {
		return "/"
	}
	return p[strings.LastIndexByte(p, '/')+1:]
}

// Join joins path segments with slashes and cleans the result.
func Join(parts ...string) string {
	return CleanPath(strings.Join(parts, "/"))
}

// IsAncestor reports whether a is a (non-strict) ancestor directory of p.
func IsAncestor(a, p string) bool {
	a, p = CleanPath(a), CleanPath(p)
	if a == "/" {
		return true
	}
	return strings.HasPrefix(p, a) && (len(p) == len(a) || p[len(a)] == '/')
}

// IsBelow reports whether p is strictly below the directory dir, both
// canonical, allocating nothing.
func IsBelow(p, dir string) bool {
	if dir == "/" {
		return len(p) > 1 && p[0] == '/'
	}
	return len(p) > len(dir)+1 && p[len(dir)] == '/' && strings.HasPrefix(p, dir)
}

// IsChild reports whether p is directly below the directory dir, both
// canonical, allocating nothing.
func IsChild(p, dir string) bool {
	if !IsBelow(p, dir) {
		return false
	}
	if dir == "/" {
		dir = ""
	}
	return strings.IndexByte(p[len(dir)+1:], '/') < 0
}

// listCap is the room a listing makes for its first entry: enough for a
// directory of a few part files, so that a small one is one allocation.
const listCap = 8

// AppendListed appends p to a listing, making room for listCap entries the
// first time.
func AppendListed(out []string, p string) []string {
	if out == nil {
		out = make([]string, 0, listCap)
	}
	return append(out, p)
}

// Ancestors returns every ancestor of p from "/" down to p itself.
func Ancestors(p string) []string { return slices.Collect(AncestorsOf(p)) }

// AncestorsOf yields every ancestor of p from "/" down to p itself. For a
// canonical p each is a prefix of p, so the walk allocates nothing.
func AncestorsOf(p string) iter.Seq[string] {
	p = CleanPath(p)
	return func(yield func(string) bool) {
		if !yield("/") {
			return
		}
		for end := 1; end < len(p); {
			next := strings.IndexByte(p[end+1:], '/')
			if next < 0 {
				end = len(p)
			} else {
				end += 1 + next
			}
			if !yield(p[:end]) {
				return
			}
		}
	}
}

// ReadAll reads a whole file into one slice sized from its length. The
// length is a hint: the read still goes to the end of the file.
func ReadAll(fs FileSystem, path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.Grow(int(size) + bytes.MinRead)
	_, err = b.ReadFrom(f)
	return b.Bytes(), err
}

// WriteFile creates path with the given contents.
func WriteFile(fs FileSystem, path string, data []byte) error {
	w, err := fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// ListRecursive returns every file (not directory) under root, sorted by
// path.
func ListRecursive(fs FileSystem, root string) ([]FileStatus, error) {
	st, err := fs.Stat(root)
	if err != nil {
		return nil, err
	}
	if !st.IsDir {
		return []FileStatus{st}, nil
	}
	out, err := appendFiles(nil, fs, root)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(out, func(a, b FileStatus) int { return strings.Compare(a.Path, b.Path) })
	return out, nil
}

// appendFiles appends the files under dir, taking each file's status from
// its directory's listing.
func appendFiles(out []FileStatus, fs FileSystem, dir string) ([]FileStatus, error) {
	children, err := fs.List(dir)
	if err != nil {
		return nil, err
	}
	out = slices.Grow(out, len(children))
	for _, c := range children {
		if !c.IsDir {
			out = append(out, c)
		} else if out, err = appendFiles(out, fs, c.Path); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// instance registry: the Go stand-in for Hadoop's FileSystem.get(conf).
// Engines register their filesystem under an id, put the id into the job
// configuration (conf.KeyFSInstance), and every format resolves it from
// there. M3R's "classpath trickery" — transparently substituting a caching
// filesystem — is a one-line re-registration (§3.2.1, §5.3).

var instances = struct {
	sync.RWMutex
	m    map[string]FileSystem
	next int
}{m: make(map[string]FileSystem)}

// RegisterInstance installs fs under a fresh unique id and returns the id.
func RegisterInstance(fs FileSystem) string {
	instances.Lock()
	defer instances.Unlock()
	instances.next++
	id := fmt.Sprintf("fs-%d", instances.next)
	instances.m[id] = fs
	return id
}

// SetInstance installs fs under an explicit id, replacing any previous
// registration.
func SetInstance(id string, fs FileSystem) {
	instances.Lock()
	defer instances.Unlock()
	instances.m[id] = fs
}

// Instance returns the filesystem registered under id.
func Instance(id string) (FileSystem, error) {
	instances.RLock()
	defer instances.RUnlock()
	fs, ok := instances.m[id]
	if !ok {
		return nil, fmt.Errorf("dfs: no filesystem registered under %q", id)
	}
	return fs, nil
}

// DropInstance removes a registration (engines do this on Close).
func DropInstance(id string) {
	instances.Lock()
	defer instances.Unlock()
	delete(instances.m, id)
}
