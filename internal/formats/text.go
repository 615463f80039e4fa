package formats

import (
	"bufio"
	"fmt"
	"io"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/registry"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// Registered names for the text formats.
const (
	TextInputFormatName  = "org.apache.hadoop.mapred.TextInputFormat"
	TextOutputFormatName = "org.apache.hadoop.mapred.TextOutputFormat"

	// KeyTextSeparator configures the key/value separator of
	// TextOutputFormat (Hadoop's mapred.textoutputformat.separator).
	KeyTextSeparator = "mapred.textoutputformat.separator"
)

func init() {
	registry.Register(registry.KindInputFormat, TextInputFormatName,
		func() any { return &TextInputFormat{} })
	registry.Register(registry.KindOutputFormat, TextOutputFormatName,
		func() any { return &TextOutputFormat{} })
}

// TextInputFormat reads plain text files as (byte offset, line) records,
// the classic Hadoop default input.
type TextInputFormat struct{}

// GetSplits implements InputFormat.
func (*TextInputFormat) GetSplits(job *conf.JobConf, numSplits int) ([]InputSplit, error) {
	return FileSplits(job, numSplits)
}

// GetRecordReader implements InputFormat.
func (*TextInputFormat) GetRecordReader(split InputSplit, job *conf.JobConf) (RecordReader, error) {
	fsplit, ok := split.(*FileSplit)
	if !ok {
		return nil, fmt.Errorf("formats: TextInputFormat got %T, want *FileSplit", split)
	}
	fs, err := FS(job)
	if err != nil {
		return nil, err
	}
	return NewLineRecordReader(fs, fsplit)
}

// LineRecordReader yields (LongWritable byte-offset, Text line) records
// from a byte range of a file, handling lines that straddle split
// boundaries the way Hadoop does: a reader starting mid-file discards the
// (partial) first line it lands in, and every reader finishes the line
// that crosses its end offset.
type LineRecordReader struct {
	file  dfs.File
	br    *bufio.Reader
	long  []byte // a line longer than br's buffer, assembled
	pos   int64
	start int64
	end   int64
}

// NewLineRecordReader opens the split's byte range on fs.
func NewLineRecordReader(fs dfs.FileSystem, split *FileSplit) (*LineRecordReader, error) {
	f, err := fs.Open(split.Path)
	if err != nil {
		return nil, err
	}
	r := &LineRecordReader{
		file:  f,
		start: split.Start,
		end:   split.Start + split.Len,
		pos:   split.Start,
	}
	if split.Start > 0 {
		// Start one byte early: if that byte is exactly a newline, the
		// line beginning at split.Start belongs to us; otherwise we are
		// mid-line and skip to the next newline. (Equivalent to Hadoop's
		// "skip first line unless offset 0".)
		if _, err := f.Seek(split.Start-1, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		r.pos = split.Start - 1
		r.br = bufio.NewReader(f)
		line, err := r.readLine()
		r.pos += int64(len(line))
		if err == io.EOF {
			// The file ends inside this split's first (partial) line.
			return r, nil
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		return r, nil
	}
	r.br = bufio.NewReader(f)
	return r, nil
}

// CreateKey implements RecordReader.
func (*LineRecordReader) CreateKey() wio.Writable { return new(types.LongWritable) }

// CreateValue implements RecordReader.
func (*LineRecordReader) CreateValue() wio.Writable { return new(types.Text) }

// Next implements RecordReader: key is the byte offset of the line start,
// value the line without its trailing newline.
func (r *LineRecordReader) Next(key, value wio.Writable) (bool, error) {
	if r.pos >= r.end {
		return false, nil
	}
	line, err := r.readLine()
	if err != nil && err != io.EOF {
		return false, err
	}
	if len(line) == 0 {
		return false, nil
	}
	key.(*types.LongWritable).Set(r.pos)
	r.pos += int64(len(line))
	if line[len(line)-1] == '\n' {
		line = line[:len(line)-1]
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	value.(*types.Text).SetBytes(line)
	return true, nil
}

// readLine returns the next line with its newline, valid until the next
// call: a view of the bufio buffer, or of r.long for a line the buffer
// cannot hold.
func (r *LineRecordReader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	r.long = append(r.long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = r.br.ReadSlice('\n')
		r.long = append(r.long, line...)
	}
	return r.long, err
}

// Progress implements RecordReader.
func (r *LineRecordReader) Progress() float32 {
	if r.end == r.start {
		return 1
	}
	p := float32(r.pos-r.start) / float32(r.end-r.start)
	if p > 1 {
		p = 1
	}
	return p
}

// Close implements RecordReader.
func (r *LineRecordReader) Close() error { return r.file.Close() }

// TextOutputFormat writes "key<sep>value\n" lines using the writables'
// String methods, Hadoop's default output format.
type TextOutputFormat struct{}

// CheckOutputSpecs implements OutputFormat.
func (*TextOutputFormat) CheckOutputSpecs(job *conf.JobConf) error {
	return CheckFileOutputSpecs(job)
}

// GetRecordWriter implements OutputFormat.
func (*TextOutputFormat) GetRecordWriter(job *conf.JobConf, name string) (RecordWriter, error) {
	fs, err := FS(job)
	if err != nil {
		return nil, err
	}
	w, err := fs.Create(TaskOutputPath(job, name))
	if err != nil {
		return nil, err
	}
	return &textWriter{w: bufio.NewWriter(w), c: w, sep: job.GetDefault(KeyTextSeparator, "\t")}, nil
}

type textWriter struct {
	w   *bufio.Writer
	c   io.Closer
	sep string
}

func (t *textWriter) Write(key, value wio.Writable) error {
	if _, err := fmt.Fprintf(t.w, "%v%s%v\n", key, t.sep, value); err != nil {
		return err
	}
	return nil
}

func (t *textWriter) Close() error {
	if err := t.w.Flush(); err != nil {
		t.c.Close()
		return err
	}
	return t.c.Close()
}
