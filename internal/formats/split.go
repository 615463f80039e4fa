// Package formats implements the input/output side of the HMR API: input
// splits, record readers and writers, the Text and SequenceFile formats,
// the file output committer, and the MultipleInputs split-tagging
// machinery. It also declares the M3R split extensions (NamedSplit,
// DelegatingSplit, PlacedSplit) from paper §4.2.1 and §4.3.
//
// The SequenceFile reader has two ownership rules. By default it copies: a
// record decodes into the caller's holders out of one read window that the
// reader reuses, and pools across readers, so a holder may be filled again
// at every Next. A caller that fills fresh holders for every record and
// keeps them — the M3R cache's cold fill, ReadSeqFileAll — asks for owned
// mode (SeqReader.ReadOwned): large byte bodies are then views of the
// window, which the reader never writes again once a record points into it.
package formats

import (
	"fmt"

	"m3r/internal/conf"
	"m3r/internal/dfs"
)

// InputSplit is the metadata describing one chunk of job input (§3.1).
type InputSplit interface {
	// Length is the number of bytes in the split.
	Length() int64
	// Locations are the hosts where the split's data is local.
	Locations() []string
}

// NamedSplit lets a user-defined split tell M3R what name to cache its data
// under (§4.2.1). Without a name (and for unknown split types) M3R must
// bypass the cache for that split. The Hadoop engine ignores this
// interface.
type NamedSplit interface {
	InputSplit
	// GetName returns the cache name for the data of this split.
	GetName() string
}

// DelegatingSplit is implemented by wrapper splits (such as
// TaggedInputSplit): it tells M3R how to reach the underlying split so
// cache naming still works (§4.2.1).
type DelegatingSplit interface {
	InputSplit
	// GetDelegate returns the wrapped split.
	GetDelegate() InputSplit
}

// PlacedSplit lets a split tell M3R which partition its data belongs to;
// M3R then runs the split's mapper at the place owning that partition,
// so data lands where partition stability will keep it (§4.3).
type PlacedSplit interface {
	InputSplit
	// Partition returns the partition this split's data is associated with.
	Partition() int
}

// FileSplit is the standard file-chunk split, understood natively by M3R
// for cache naming (the paper: "Given a FileSplit, it can obtain the file
// name and offset information and use that to enter/retrieve the data in
// the cache").
type FileSplit struct {
	Path  string
	Start int64
	Len   int64
	Hosts []string
	// FileSize is the whole file's length when the split's maker knew it
	// (FileSplits records the listing's), 0 when it did not.
	FileSize int64
}

// Length implements InputSplit.
func (s *FileSplit) Length() int64 { return s.Len }

// Locations implements InputSplit.
func (s *FileSplit) Locations() []string { return s.Hosts }

// String implements fmt.Stringer.
func (s *FileSplit) String() string {
	return fmt.Sprintf("%s:%d+%d", s.Path, s.Start, s.Len)
}

// SplitName returns the canonical cache name for a split, resolving the
// M3R naming rules in order: known FileSplit, NamedSplit, DelegatingSplit
// (recursively). ok=false means the split cannot be named and its data must
// bypass the cache (§4.2.1).
func SplitName(split InputSplit) (string, bool) {
	switch s := split.(type) {
	case *FileSplit:
		return fmt.Sprintf("%s:%d+%d", s.Path, s.Start, s.Len), true
	case NamedSplit:
		return s.GetName(), true
	case DelegatingSplit:
		return SplitName(s.GetDelegate())
	}
	return "", false
}

// FS resolves the filesystem instance named by the job configuration. It
// is the analogue of Hadoop's FileSystem.get(conf): engines install a
// filesystem (M3R installs its caching wrapper) under conf.KeyFSInstance,
// and all format code resolves it from there.
func FS(job *conf.JobConf) (dfs.FileSystem, error) {
	id := job.Get(conf.KeyFSInstance)
	if id == "" {
		return nil, fmt.Errorf("formats: job has no filesystem (missing %s)", conf.KeyFSInstance)
	}
	return dfs.Instance(id)
}
