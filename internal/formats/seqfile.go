package formats

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/registry"
	"m3r/internal/wio"
)

// SequenceFile is the binary key/value container the matrix workloads (and
// Hadoop generally) use for typed data. The layout follows Hadoop's:
//
//	magic "SEQG", version byte,
//	key class name, value class name (wio strings),
//	16-byte sync marker,
//	then records:  int32 recordLen | -1 escape followed by the sync marker
//	               int32 keyLen, key bytes, value bytes (recordLen-keyLen)
//
// Sync markers let a reader enter the file at an arbitrary split offset:
// it scans forward to the first full marker and is then record-aligned.
// A record belongs to the split containing the last marker before it.
const (
	seqMagic     = "SEQG"
	seqVersion   = 1
	syncSize     = 16
	syncEscape   = int32(-1)
	seqSyncEvery = 2000 // bytes between sync markers
	maxSeqRecord = 1 << 30
)

// Registered names for the SequenceFile formats.
const (
	SequenceFileInputFormatName  = "org.apache.hadoop.mapred.SequenceFileInputFormat"
	SequenceFileOutputFormatName = "org.apache.hadoop.mapred.SequenceFileOutputFormat"
)

func init() {
	registry.Register(registry.KindInputFormat, SequenceFileInputFormatName,
		func() any { return &SequenceFileInputFormat{} })
	registry.Register(registry.KindOutputFormat, SequenceFileOutputFormatName,
		func() any { return &SequenceFileOutputFormat{} })
}

// SeqWriter writes a SequenceFile.
type SeqWriter struct {
	w         *bufio.Writer
	c         io.Closer
	sync      [syncSize]byte
	sinceSync int
	rec       []byte // the record being appended: key bytes then value bytes
	scratch   [4]byte
}

// NewSeqWriter writes a SequenceFile header for the given key/value class
// names onto wc and returns the writer.
func NewSeqWriter(wc io.WriteCloser, keyClass, valClass string) (*SeqWriter, error) {
	s := &SeqWriter{w: bufio.NewWriter(wc), c: wc}
	rand.Read(s.sync[:])
	hw := wio.NewWriter(s.w)
	if _, err := hw.Write([]byte(seqMagic)); err != nil {
		return nil, err
	}
	if err := hw.WriteByte(seqVersion); err != nil {
		return nil, err
	}
	if err := hw.WriteString(keyClass); err != nil {
		return nil, err
	}
	if err := hw.WriteString(valClass); err != nil {
		return nil, err
	}
	if _, err := hw.Write(s.sync[:]); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *SeqWriter) writeInt32(v int32) error {
	binary.BigEndian.PutUint32(s.scratch[:], uint32(v))
	_, err := s.w.Write(s.scratch[:])
	return err
}

// Append writes one record.
func (s *SeqWriter) Append(key, value wio.Writable) error {
	var err error
	if s.rec, err = wio.AppendMarshal(s.rec[:0], key); err != nil {
		return err
	}
	keyLen := len(s.rec)
	if s.rec, err = wio.AppendMarshal(s.rec, value); err != nil {
		return err
	}
	if s.sinceSync >= seqSyncEvery {
		if err := s.writeInt32(syncEscape); err != nil {
			return err
		}
		if _, err := s.w.Write(s.sync[:]); err != nil {
			return err
		}
		s.sinceSync = 0
	}
	recLen := int32(len(s.rec))
	if err := s.writeInt32(recLen); err != nil {
		return err
	}
	if err := s.writeInt32(int32(keyLen)); err != nil {
		return err
	}
	if _, err := s.w.Write(s.rec); err != nil {
		return err
	}
	s.sinceSync += int(recLen) + 8
	return nil
}

// Close flushes and closes the underlying file.
func (s *SeqWriter) Close() error {
	if err := s.w.Flush(); err != nil {
		s.c.Close()
		return err
	}
	return s.c.Close()
}

// countingReader tracks the file offset of the next unread byte.
type countingReader struct {
	br  *bufio.Reader
	pos int64
}

func (c *countingReader) readFull(p []byte) error {
	n, err := io.ReadFull(c.br, p)
	c.pos += int64(n)
	return err
}

// discard skips n bytes that are already buffered.
func (c *countingReader) discard(n int) {
	c.br.Discard(n)
	c.pos += int64(n)
}

func (c *countingReader) readByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.pos++
	}
	return b, err
}

// SeqReader reads records from one split of a SequenceFile.
type SeqReader struct {
	file     dfs.File
	cr       *countingReader
	sync     [syncSize]byte
	keyClass string
	valClass string
	start    int64
	end      int64
	done     bool
	scratch  []byte
	rd       wio.Reader // slice-mode view of the current record's key, then value
}

// NewSeqReader opens the byte range [start, start+length) of the
// SequenceFile at path on fs. A length of <0 means "to end of file".
func NewSeqReader(fs dfs.FileSystem, path string, start, length int64) (*SeqReader, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	r := &SeqReader{file: f, start: start}
	// The header is always read from offset 0, whatever the split.
	hr := &countingReader{br: bufio.NewReader(f)}
	magic := make([]byte, len(seqMagic))
	if err := hr.readFull(magic); err != nil {
		f.Close()
		return nil, fmt.Errorf("formats: reading SequenceFile header of %s: %w", path, err)
	}
	if string(magic) != seqMagic {
		f.Close()
		return nil, fmt.Errorf("formats: %s is not a SequenceFile", path)
	}
	ver, err := hr.readByte()
	if err != nil {
		f.Close()
		return nil, err
	}
	if ver != seqVersion {
		f.Close()
		return nil, fmt.Errorf("formats: %s: unsupported SequenceFile version %d", path, ver)
	}
	wr := wio.NewReader(hr.br)
	if r.keyClass, err = wr.ReadString(); err != nil {
		f.Close()
		return nil, err
	}
	if r.valClass, err = wr.ReadString(); err != nil {
		f.Close()
		return nil, err
	}
	hr.pos += wr.Count()
	if err := hr.readFull(r.sync[:]); err != nil {
		f.Close()
		return nil, err
	}
	headerEnd := hr.pos

	if length < 0 {
		st, err := fs.Stat(path)
		if err != nil {
			f.Close()
			return nil, err
		}
		r.end = st.Size
	} else {
		r.end = start + length
	}

	if start <= headerEnd {
		r.cr = hr
	} else {
		// Enter mid-file: seek to start and scan for the first full sync
		// marker; records resume immediately after it.
		if _, err := f.Seek(start, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		hr.br.Reset(f) // the header's reader, emptied for the new offset
		hr.pos = start
		r.cr = hr
		if err := r.scanToSync(); err != nil {
			if err == io.EOF {
				r.done = true
			} else {
				f.Close()
				return nil, err
			}
		} else if r.cr.pos-syncSize >= r.end {
			// The first marker after start lies past the split's end — the
			// split sits inside one large record — so the records behind
			// that marker are another split's, as Next decides for every
			// later marker.
			r.done = true
		}
	}
	return r, nil
}

// scanToSync advances past the next full sync marker, or to the end of the
// file with io.EOF when there is none. It searches the bufio window in place:
// a window without the marker is dropped except for its last syncSize-1
// bytes, which may begin a marker that the next refill completes.
func (r *SeqReader) scanToSync() error {
	br := r.cr.br
	for {
		if _, err := br.Peek(syncSize); err != nil {
			r.cr.discard(br.Buffered())
			return io.EOF
		}
		window, _ := br.Peek(br.Buffered())
		if i := bytes.Index(window, r.sync[:]); i >= 0 {
			r.cr.discard(i + syncSize)
			return nil
		}
		r.cr.discard(len(window) - (syncSize - 1))
	}
}

// KeyClass returns the key class name from the header.
func (r *SeqReader) KeyClass() string { return r.keyClass }

// ValClass returns the value class name from the header.
func (r *SeqReader) ValClass() string { return r.valClass }

func (r *SeqReader) readInt32() (int32, error) {
	var b [4]byte
	if err := r.cr.readFull(b[:]); err != nil {
		return 0, err
	}
	return int32(binary.BigEndian.Uint32(b[:])), nil
}

// Next fills key and value with the next record of the split.
func (r *SeqReader) Next(key, value wio.Writable) (bool, error) {
	if r.done {
		return false, nil
	}
	for {
		recLen, err := r.readInt32()
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			r.done = true
			return false, nil
		}
		if err != nil {
			return false, err
		}
		if recLen == syncEscape {
			// The marker's first byte is the boundary position.
			markerStart := r.cr.pos
			var marker [syncSize]byte
			if err := r.cr.readFull(marker[:]); err != nil {
				r.done = true
				return false, nil
			}
			if !bytes.Equal(marker[:], r.sync[:]) {
				return false, fmt.Errorf("formats: corrupt SequenceFile: bad sync marker at %d", markerStart)
			}
			if markerStart >= r.end {
				r.done = true
				return false, nil
			}
			continue
		}
		if recLen < 0 || recLen > maxSeqRecord {
			return false, fmt.Errorf("formats: corrupt SequenceFile: record length %d", recLen)
		}
		keyLen, err := r.readInt32()
		if err != nil {
			return false, err
		}
		if keyLen < 0 || keyLen > recLen {
			return false, fmt.Errorf("formats: corrupt SequenceFile: key length %d of %d", keyLen, recLen)
		}
		if cap(r.scratch) < int(recLen) {
			r.scratch = make([]byte, recLen)
		}
		buf := r.scratch[:recLen]
		if err := r.cr.readFull(buf); err != nil {
			return false, err
		}
		r.rd.ResetBytes(buf[:keyLen])
		if err := key.ReadFields(&r.rd); err != nil {
			return false, err
		}
		r.rd.ResetBytes(buf[keyLen:])
		if err := value.ReadFields(&r.rd); err != nil {
			return false, err
		}
		return true, nil
	}
}

// Progress reports completion in [0,1].
func (r *SeqReader) Progress() float32 {
	if r.end == r.start {
		return 1
	}
	p := float32(r.cr.pos-r.start) / float32(r.end-r.start)
	if p > 1 {
		p = 1
	}
	return p
}

// Close closes the underlying file.
func (r *SeqReader) Close() error { return r.file.Close() }

// seqRecordReader adapts SeqReader to the RecordReader interface.
type seqRecordReader struct {
	*SeqReader
}

// CreateKey implements RecordReader from the header's key class.
func (r seqRecordReader) CreateKey() wio.Writable {
	k, err := wio.New(r.keyClass)
	if err != nil {
		panic(fmt.Sprintf("formats: SequenceFile key class: %v", err))
	}
	return k
}

// CreateValue implements RecordReader from the header's value class.
func (r seqRecordReader) CreateValue() wio.Writable {
	v, err := wio.New(r.valClass)
	if err != nil {
		panic(fmt.Sprintf("formats: SequenceFile value class: %v", err))
	}
	return v
}

// SequenceFileInputFormat reads SequenceFiles with block-aligned splits.
type SequenceFileInputFormat struct{}

// GetSplits implements InputFormat.
func (*SequenceFileInputFormat) GetSplits(job *conf.JobConf, numSplits int) ([]InputSplit, error) {
	return FileSplits(job, numSplits)
}

// GetRecordReader implements InputFormat.
func (*SequenceFileInputFormat) GetRecordReader(split InputSplit, job *conf.JobConf) (RecordReader, error) {
	fsplit, ok := split.(*FileSplit)
	if !ok {
		return nil, fmt.Errorf("formats: SequenceFileInputFormat got %T, want *FileSplit", split)
	}
	fs, err := FS(job)
	if err != nil {
		return nil, err
	}
	sr, err := NewSeqReader(fs, fsplit.Path, fsplit.Start, fsplit.Len)
	if err != nil {
		return nil, err
	}
	return seqRecordReader{sr}, nil
}

// SequenceFileOutputFormat writes job output as SequenceFiles typed by the
// job's output key/value classes.
type SequenceFileOutputFormat struct{}

// CheckOutputSpecs implements OutputFormat.
func (*SequenceFileOutputFormat) CheckOutputSpecs(job *conf.JobConf) error {
	return CheckFileOutputSpecs(job)
}

// GetRecordWriter implements OutputFormat.
func (*SequenceFileOutputFormat) GetRecordWriter(job *conf.JobConf, name string) (RecordWriter, error) {
	fs, err := FS(job)
	if err != nil {
		return nil, err
	}
	keyClass := job.Get(conf.KeyOutputKeyClass)
	valClass := job.Get(conf.KeyOutputValueClass)
	if keyClass == "" || valClass == "" {
		return nil, fmt.Errorf("formats: SequenceFileOutputFormat requires output key/value classes")
	}
	wc, err := fs.Create(TaskOutputPath(job, name))
	if err != nil {
		return nil, err
	}
	sw, err := NewSeqWriter(wc, keyClass, valClass)
	if err != nil {
		return nil, err
	}
	return seqRecordWriter{sw}, nil
}

type seqRecordWriter struct{ *SeqWriter }

func (w seqRecordWriter) Write(key, value wio.Writable) error { return w.Append(key, value) }

// WriteSeqFile creates path on fs holding the given pairs — a convenience
// for data generators and tests.
func WriteSeqFile(fs dfs.FileSystem, path, keyClass, valClass string, pairs []wio.Pair) error {
	wc, err := fs.Create(path)
	if err != nil {
		return err
	}
	sw, err := NewSeqWriter(wc, keyClass, valClass)
	if err != nil {
		wc.Close()
		return err
	}
	for _, p := range pairs {
		if err := sw.Append(p.Key, p.Value); err != nil {
			sw.Close()
			return err
		}
	}
	return sw.Close()
}

// ReadSeqFileAll reads every record of the SequenceFile at path into fresh
// pairs.
func ReadSeqFileAll(fs dfs.FileSystem, path string) ([]wio.Pair, error) {
	sr, err := NewSeqReader(fs, path, 0, -1)
	if err != nil {
		return nil, err
	}
	defer sr.Close()
	rr := seqRecordReader{sr}
	var out []wio.Pair
	for {
		k, v := rr.CreateKey(), rr.CreateValue()
		ok, err := sr.Next(k, v)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, wio.Pair{Key: k, Value: v})
	}
}
