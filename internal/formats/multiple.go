package formats

import (
	"fmt"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/registry"
)

// MultipleInputs support (§4.2.2): jobs with several inputs routed to
// different mappers — the matrix/vector pattern of the paper's running
// example — configure a per-path (input format, mapper) mapping. The
// DelegatingInputFormat wraps each underlying split in a TaggedInputSplit
// carrying the routing information; the mapred.DelegatingMapper unwraps it
// on the task side. TaggedInputSplit implements DelegatingSplit so M3R's
// cache can still name the underlying data (§4.2.1).

// Configuration keys for MultipleInputs.
const (
	// KeyMultipleInputsDirs holds entries "path;inputFormat;mapper".
	KeyMultipleInputsDirs = "mapred.input.dir.formats"

	DelegatingInputFormatName = "org.apache.hadoop.mapred.lib.DelegatingInputFormat"
)

func init() {
	registry.Register(registry.KindInputFormat, DelegatingInputFormatName,
		func() any { return &DelegatingInputFormat{} })
}

// AddMultipleInput registers path with its own input format and mapper and
// configures the job to use the delegating machinery.
func AddMultipleInput(job *conf.JobConf, path, inputFormat, mapper string) {
	entry := fmt.Sprintf("%s;%s;%s", dfs.CleanPath(path), inputFormat, mapper)
	cur := job.Get(KeyMultipleInputsDirs)
	if cur == "" {
		job.Set(KeyMultipleInputsDirs, entry)
	} else {
		job.Set(KeyMultipleInputsDirs, cur+","+entry)
	}
	job.AddInputPath(path)
	job.SetInputFormatClass(DelegatingInputFormatName)
}

// multiInput is one parsed MultipleInputs entry.
type multiInput struct {
	path        string
	inputFormat string
	mapper      string
}

// TaggedInputSplit wraps a base split with the names of the input format
// and mapper that should process it.
type TaggedInputSplit struct {
	Base            InputSplit
	InputFormatName string
	MapperName      string
}

// Length implements InputSplit.
func (s *TaggedInputSplit) Length() int64 { return s.Base.Length() }

// Locations implements InputSplit.
func (s *TaggedInputSplit) Locations() []string { return s.Base.Locations() }

// GetDelegate implements DelegatingSplit, exposing the wrapped split for
// M3R cache naming.
func (s *TaggedInputSplit) GetDelegate() InputSplit { return s.Base }

// Partition implements PlacedSplit when the base split does.
func (s *TaggedInputSplit) Partition() int {
	if p, ok := s.Base.(PlacedSplit); ok {
		return p.Partition()
	}
	return -1
}

// DelegatingInputFormat fans GetSplits out to each configured input's own
// format and tags every split with its routing.
type DelegatingInputFormat struct{}

// GetSplits implements InputFormat.
func (*DelegatingInputFormat) GetSplits(job *conf.JobConf, numSplits int) ([]InputSplit, error) {
	entries := job.GetStrings(KeyMultipleInputsDirs)
	if len(entries) == 0 {
		return nil, fmt.Errorf("formats: DelegatingInputFormat: no MultipleInputs configured")
	}
	var out []InputSplit
	for _, e := range entries {
		mi, err := splitEntry(e)
		if err != nil {
			return nil, err
		}
		ifc, err := registry.New(registry.KindInputFormat, mi.inputFormat)
		if err != nil {
			return nil, err
		}
		inner, ok := ifc.(InputFormat)
		if !ok {
			return nil, fmt.Errorf("formats: %q is not an InputFormat", mi.inputFormat)
		}
		// Run the inner format against a job view restricted to this path.
		sub := job.CloneJob()
		sub.Set(conf.KeyInputPaths, mi.path)
		splits, err := inner.GetSplits(sub, numSplits)
		if err != nil {
			return nil, err
		}
		tagged := make([]TaggedInputSplit, len(splits))
		for i, s := range splits {
			tagged[i] = TaggedInputSplit{Base: s, InputFormatName: mi.inputFormat, MapperName: mi.mapper}
			out = append(out, &tagged[i])
		}
	}
	return out, nil
}

func splitEntry(e string) (multiInput, error) {
	var mi multiInput
	first := -1
	second := -1
	for i := 0; i < len(e); i++ {
		if e[i] == ';' {
			if first < 0 {
				first = i
			} else {
				second = i
				break
			}
		}
	}
	if first < 0 || second < 0 {
		return mi, fmt.Errorf("formats: malformed MultipleInputs entry %q", e)
	}
	mi.path = e[:first]
	mi.inputFormat = e[first+1 : second]
	mi.mapper = e[second+1:]
	if mi.path == "" || mi.inputFormat == "" || mi.mapper == "" {
		return mi, fmt.Errorf("formats: malformed MultipleInputs entry %q", e)
	}
	return mi, nil
}

// GetRecordReader implements InputFormat, opening the tagged split with its
// own input format.
func (*DelegatingInputFormat) GetRecordReader(split InputSplit, job *conf.JobConf) (RecordReader, error) {
	tagged, ok := split.(*TaggedInputSplit)
	if !ok {
		return nil, fmt.Errorf("formats: DelegatingInputFormat got %T, want *TaggedInputSplit", split)
	}
	ifc, err := registry.New(registry.KindInputFormat, tagged.InputFormatName)
	if err != nil {
		return nil, err
	}
	inner, ok := ifc.(InputFormat)
	if !ok {
		return nil, fmt.Errorf("formats: %q is not an InputFormat", tagged.InputFormatName)
	}
	return inner.GetRecordReader(tagged.Base, job)
}
