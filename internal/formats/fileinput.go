package formats

import (
	"fmt"
	"slices"
	"strings"

	"m3r/internal/conf"
	"m3r/internal/dfs"
)

// ListInputFiles expands the job's input paths into the concrete data files
// beneath them, skipping the _SUCCESS/_temporary bookkeeping entries the
// committer creates. It is shared by every file-based input format.
func ListInputFiles(job *conf.JobConf) ([]dfs.FileStatus, error) {
	fs, err := FS(job)
	if err != nil {
		return nil, err
	}
	paths := job.InputPaths()
	if len(paths) == 0 {
		return nil, fmt.Errorf("formats: job %q has no input paths", job.JobName())
	}
	var out []dfs.FileStatus
	for _, p := range paths {
		files, err := dfs.ListRecursive(fs, dfs.CleanPath(p))
		if err != nil {
			return nil, fmt.Errorf("formats: listing input %s: %w", p, err)
		}
		// The listing is ours: its data files are kept in place.
		keep := files[:0]
		for _, f := range files {
			base := dfs.Base(f.Path)
			if base == SuccessMarker || base == TemporaryDir || f.IsDir {
				continue
			}
			keep = append(keep, f)
		}
		if out == nil {
			out = keep
		} else {
			out = append(out, keep...)
		}
	}
	slices.SortFunc(out, func(a, b dfs.FileStatus) int { return strings.Compare(a.Path, b.Path) })
	return out, nil
}

// FileSplits cuts the job's input files into FileSplits of roughly
// splitSize bytes each, aligned to block boundaries so Locations is exact.
// When numSplits asks for more parallelism than the block count provides,
// blocks are subdivided (Hadoop's goal-size logic).
func FileSplits(job *conf.JobConf, numSplits int) ([]InputSplit, error) {
	fs, err := FS(job)
	if err != nil {
		return nil, err
	}
	files, err := ListInputFiles(job)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, f := range files {
		total += f.Size
	}
	goal := int64(1)
	if numSplits > 0 {
		goal = total / int64(numSplits)
		if goal < 1 {
			goal = 1
		}
	}
	// The splits are laid out in one slice, which the interfaces point
	// into; a file is at least one split.
	cut := make([]FileSplit, 0, len(files))
	for _, f := range files {
		if f.Size == 0 {
			continue
		}
		locs, err := fs.BlockLocations(f.Path, 0, f.Size)
		if err != nil {
			return nil, err
		}
		for _, bl := range locs {
			// Subdivide a block when the goal size asks for finer grain.
			splitSize := bl.Length
			if goal > 0 && goal < splitSize {
				n := (bl.Length + goal - 1) / goal
				splitSize = (bl.Length + n - 1) / n
			}
			for off := int64(0); off < bl.Length; off += splitSize {
				l := splitSize
				if off+l > bl.Length {
					l = bl.Length - off
				}
				cut = append(cut, FileSplit{
					Path:     f.Path,
					Start:    bl.Offset + off,
					Len:      l,
					Hosts:    bl.Hosts,
					FileSize: f.Size,
				})
			}
		}
	}
	splits := make([]InputSplit, len(cut))
	for i := range cut {
		splits[i] = &cut[i]
	}
	return splits, nil
}
