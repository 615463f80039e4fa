package formats

import (
	"fmt"

	"m3r/internal/conf"
	"m3r/internal/wio"
)

// RecordReader streams key/value records out of one input split. It keeps
// Hadoop's old-API mutating contract: the engine (or MapRunnable) allocates
// key/value holders once with CreateKey/CreateValue and Next overwrites
// them in place for every record. This object reuse is the reason M3R must
// clone map inputs that flow into the cache, and why the default map runner
// cannot be marked ImmutableOutput (§4.1).
type RecordReader interface {
	// CreateKey allocates a key holder of the reader's key type.
	CreateKey() wio.Writable
	// CreateValue allocates a value holder of the reader's value type.
	CreateValue() wio.Writable
	// Next fills key and value with the next record, returning false at
	// the end of the split.
	Next(key, value wio.Writable) (bool, error)
	// Progress reports completion in [0,1].
	Progress() float32
	// Close releases the reader's resources.
	Close() error
}

// RecordWriter consumes the output key/value pairs of a task.
type RecordWriter interface {
	Write(key, value wio.Writable) error
	Close() error
}

// InputFormat describes job input: how to split it and how to read a split
// (§3.1).
type InputFormat interface {
	// GetSplits partitions the job input into splits; numSplits is a hint.
	GetSplits(job *conf.JobConf, numSplits int) ([]InputSplit, error)
	// GetRecordReader opens one split for reading.
	GetRecordReader(split InputSplit, job *conf.JobConf) (RecordReader, error)
}

// OutputFormat describes job output. Name is the task's output file name
// ("part-00000"); the format resolves the directory from the job
// configuration (the committer's work dir when set, else the final output
// path).
type OutputFormat interface {
	// CheckOutputSpecs validates the output location before the job runs.
	CheckOutputSpecs(job *conf.JobConf) error
	// GetRecordWriter opens the output file name for a task.
	GetRecordWriter(job *conf.JobConf, name string) (RecordWriter, error)
}

// PairReader adapts an in-memory pair slice to the RecordReader interface.
// The mutating contract is honoured by copying each stored pair into the
// caller's holders through a serialization round trip — it is a test and
// glue utility, not the M3R cache fast path (the M3R engine feeds cached
// pairs to mappers directly, without a RecordReader, precisely to avoid
// this cost).
type PairReader struct {
	pairs      []wio.Pair
	pos        int
	keyFactory func() wio.Writable
	valFactory func() wio.Writable
	scratch    []byte // one field's serialized form, between marshal and unmarshal
}

// NewPairReader returns a PairReader over pairs. Key and value factories
// come from the registered type names.
func NewPairReader(pairs []wio.Pair, keyClass, valClass string) (*PairReader, error) {
	kf, err := factoryFor(keyClass)
	if err != nil {
		return nil, err
	}
	vf, err := factoryFor(valClass)
	if err != nil {
		return nil, err
	}
	return &PairReader{pairs: pairs, keyFactory: kf, valFactory: vf}, nil
}

func factoryFor(class string) (func() wio.Writable, error) {
	if class == "" {
		return nil, fmt.Errorf("formats: missing writable class name")
	}
	f, err := wio.Factory(class)
	if err != nil {
		return nil, fmt.Errorf("formats: unregistered writable class %q", class)
	}
	return f, nil
}

// CreateKey implements RecordReader.
func (r *PairReader) CreateKey() wio.Writable { return r.keyFactory() }

// CreateValue implements RecordReader.
func (r *PairReader) CreateValue() wio.Writable { return r.valFactory() }

// Next implements RecordReader.
func (r *PairReader) Next(key, value wio.Writable) (bool, error) {
	if r.pos >= len(r.pairs) {
		return false, nil
	}
	p := r.pairs[r.pos]
	r.pos++
	var err error
	if r.scratch, err = wio.AppendMarshal(r.scratch[:0], p.Key); err != nil {
		return false, err
	}
	if err := wio.Unmarshal(r.scratch, key); err != nil {
		return false, err
	}
	if r.scratch, err = wio.AppendMarshal(r.scratch[:0], p.Value); err != nil {
		return false, err
	}
	if err := wio.Unmarshal(r.scratch, value); err != nil {
		return false, err
	}
	return true, nil
}

// Progress implements RecordReader.
func (r *PairReader) Progress() float32 {
	if len(r.pairs) == 0 {
		return 1
	}
	return float32(r.pos) / float32(len(r.pairs))
}

// Close implements RecordReader.
func (r *PairReader) Close() error { return nil }

// CollectorFunc adapts a function to a minimal pair sink, used by tests and
// the engines' internal plumbing.
type CollectorFunc func(key, value wio.Writable) error

// Write implements RecordWriter.
func (f CollectorFunc) Write(key, value wio.Writable) error { return f(key, value) }

// Close implements RecordWriter.
func (CollectorFunc) Close() error { return nil }
