package formats

import (
	"bufio"
	"bytes"
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
// that crosses its end offset. Lines are cut where they lie in the
// reader's window. In copy mode (the default) a value holds a copy of its
// line; in owned mode (ReadOwned) it is a view of the window.
type LineRecordReader struct{ window }

// NewLineRecordReader opens the split's byte range on fs.
func NewLineRecordReader(fs dfs.FileSystem, split *FileSplit) (*LineRecordReader, error) {
	f, err := fs.Open(split.Path)
	if err != nil {
		return nil, err
	}
	r := new(LineRecordReader)
	r.open(f, split.Start, split.Start+split.Len)
	if split.Start > 0 {
		// Start one byte early: if that byte is exactly a newline, the
		// line beginning at split.Start belongs to us; otherwise we are
		// mid-line and skip to the next newline. (Equivalent to Hadoop's
		// "skip first line unless offset 0".)
		err := r.seek(split.Start - 1)
		if err == nil {
			_, err = r.line()
		}
		if err != nil && err != io.EOF {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// ReadOwned switches the reader to owned mode, for a caller that fills fresh
// holders for every record and keeps them; it calls ReadOwned once, before
// its first Next. Every non-empty line is then handed out as a view of the
// window, capacity clipped to the line, and the window — a fresh one, the
// size of the split's rest up to 1 MiB — is the lines' from then on: no
// later fill writes over a byte a line points into. The unread bytes of the
// pooled window move to the fresh one, and the pooled one goes back.
func (r *LineRecordReader) ReadOwned() { r.own() }

// CreateKey implements RecordReader.
func (*LineRecordReader) CreateKey() wio.Writable { return new(types.LongWritable) }

// CreateValue implements RecordReader.
func (*LineRecordReader) CreateValue() wio.Writable { return new(types.Text) }

// Next implements RecordReader: key is the byte offset of the line start,
// value the line without its trailing newline.
func (r *LineRecordReader) Next(key, value wio.Writable) (bool, error) {
	at := r.pos()
	if at >= r.end {
		return false, nil
	}
	line, err := r.line()
	if err != nil && err != io.EOF {
		return false, err
	}
	if len(line) == 0 {
		return false, nil
	}
	key.(*types.LongWritable).Set(at)
	if line[len(line)-1] == '\n' {
		line = line[:len(line)-1]
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	if t := value.(*types.Text); r.owned && len(line) > 0 {
		t.B = line[:len(line):len(line)]
		r.aliased = true
	} else {
		t.SetBytes(line)
	}
	return true, nil
}

// line consumes the next line and returns it with its newline, a view of
// the window valid until the next fill (in owned mode, once a line aliases
// the window, for good). A last line without a newline
// comes with io.EOF, as does the empty line at the end of the file.
func (r *LineRecordReader) line() ([]byte, error) {
	for scanned := 0; ; {
		unread := r.win[r.off:]
		if i := bytes.IndexByte(unread[scanned:], '\n'); i >= 0 {
			r.off += scanned + i + 1
			return unread[:scanned+i+1], nil
		}
		scanned = len(unread)
		switch err := r.fill(scanned + 1); err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			unread = r.win[r.off:]
			r.off = len(r.win)
			return unread, io.EOF
		default:
			return nil, err
		}
	}
}

// Progress implements RecordReader.
func (r *LineRecordReader) Progress() float32 { return r.progress() }

// Close implements RecordReader.
func (r *LineRecordReader) Close() error { return r.close() }

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
