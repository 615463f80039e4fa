package dfs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Local is a FileSystem over a directory of the host filesystem. It stands
// in for Hadoop's LocalFileSystem: M3R "is essentially agnostic to the file
// system, so it can run HMR jobs that use the local file system or HDFS"
// (paper §1) — the engines here accept any dfs.FileSystem the same way.
type Local struct {
	root string
}

// NewLocal returns a Local filesystem rooted at dir (created if absent).
func NewLocal(dir string) (*Local, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dfs: creating local root: %w", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return &Local{root: abs}, nil
}

func (l *Local) real(path string) string {
	return filepath.Join(l.root, filepath.FromSlash(CleanPath(path)))
}

// Create implements FileSystem.
func (l *Local) Create(path string) (io.WriteCloser, error) {
	real := l.real(path)
	if err := os.MkdirAll(filepath.Dir(real), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(real, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("dfs: create %s: %w", path, ErrExists)
		}
		return nil, err
	}
	return f, nil
}

// CreateOn implements FileSystem; the locality hint is ignored.
func (l *Local) CreateOn(path, _ string) (io.WriteCloser, error) { return l.Create(path) }

// Open implements FileSystem.
func (l *Local) Open(path string) (File, error) {
	f, err := os.Open(l.real(path))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &PathError{"open", path, ErrNotFound}
		}
		return nil, err
	}
	st, err := f.Stat()
	if err == nil && st.IsDir() {
		f.Close()
		return nil, fmt.Errorf("dfs: open %s: %w", path, ErrIsDirectory)
	}
	return f, nil
}

// Delete implements FileSystem.
func (l *Local) Delete(path string, recursive bool) error {
	real := l.real(path)
	st, err := os.Stat(real)
	if err != nil {
		if os.IsNotExist(err) {
			return &PathError{"delete", path, ErrNotFound}
		}
		return err
	}
	if st.IsDir() && recursive {
		return os.RemoveAll(real)
	}
	return os.Remove(real)
}

// Rename implements FileSystem.
func (l *Local) Rename(src, dst string) error {
	if _, err := os.Stat(l.real(dst)); err == nil {
		return fmt.Errorf("dfs: rename to %s: %w", dst, ErrExists)
	}
	if err := os.MkdirAll(filepath.Dir(l.real(dst)), 0o755); err != nil {
		return err
	}
	if err := os.Rename(l.real(src), l.real(dst)); err != nil {
		if os.IsNotExist(err) {
			return &PathError{"rename", src, ErrNotFound}
		}
		return err
	}
	return nil
}

// Mkdirs implements FileSystem.
func (l *Local) Mkdirs(path string) error {
	return os.MkdirAll(l.real(path), 0o755)
}

// Stat implements FileSystem.
func (l *Local) Stat(path string) (FileStatus, error) {
	st, err := os.Stat(l.real(path))
	if err != nil {
		if os.IsNotExist(err) {
			return FileStatus{}, &PathError{"stat", path, ErrNotFound}
		}
		return FileStatus{}, err
	}
	return FileStatus{
		Path:        CleanPath(path),
		Size:        st.Size(),
		IsDir:       st.IsDir(),
		ModTime:     st.ModTime(),
		BlockSize:   st.Size(),
		Replication: 1,
	}, nil
}

// Exists implements FileSystem.
func (l *Local) Exists(path string) bool {
	_, err := os.Stat(l.real(path))
	return err == nil
}

// List implements FileSystem.
func (l *Local) List(path string) ([]FileStatus, error) {
	entries, err := os.ReadDir(l.real(path))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &PathError{"list", path, ErrNotFound}
		}
		st, serr := l.Stat(path)
		if serr == nil && !st.IsDir {
			return []FileStatus{st}, nil
		}
		return nil, err
	}
	out := make([]FileStatus, 0, len(entries))
	for _, e := range entries {
		st, err := l.Stat(Join(path, e.Name()))
		if err != nil {
			continue
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// BlockLocations implements FileSystem: one local block per file.
func (l *Local) BlockLocations(path string, start, length int64) ([]BlockLocation, error) {
	st, err := l.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir {
		return nil, fmt.Errorf("dfs: locations %s: %w", path, ErrIsDirectory)
	}
	if st.Size == 0 || start >= st.Size {
		return nil, nil
	}
	return []BlockLocation{{Offset: 0, Length: st.Size, Hosts: []string{"localhost"}}}, nil
}
