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

// SeqReader reads records from one split of a SequenceFile, decoding each
// where it lies in the reader's window.
//
// In copy mode (the default) records decode in wio.Reader's copying slice
// mode: nothing returned points into the window. A caller that fills fresh
// holders for every record and keeps them switches the reader to owned mode
// (ReadOwned): records then decode with wio.Reader.ResetBytesOwned, so a
// byte body of wio.OwnedFloor bytes or more is a view of the window, which
// then keeps every byte it has read.
type SeqReader struct {
	window
	path     string
	sync     [syncSize]byte
	keyClass string
	valClass string
	done     bool
	rd       wio.Reader // slice-mode view of the current record's key, then value
}

// NewSeqReader opens the byte range [start, start+length) of the
// SequenceFile at path on fs. A length of <0 means "to end of file".
func NewSeqReader(fs dfs.FileSystem, path string, start, length int64) (*SeqReader, error) {
	end := start + length
	if length < 0 {
		st, err := fs.Stat(path)
		if err != nil {
			return nil, err
		}
		end = st.Size
	}
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	r := &SeqReader{path: path}
	r.open(f, start, end)
	// The header is always read from offset 0, whatever the split; a split
	// that starts past it reads no more of the file for it than the header
	// needs and a read's reach past it (pastEnd), not the first block.
	if start > 0 {
		r.end = 0
	}
	err = r.readHeader()
	r.end = end
	switch {
	case err != nil:
	case start > 0:
		err = r.enter(start)
	default:
		// The header ends with the file's first sync marker: a split that
		// ends before it owns no record.
		r.done = r.pos()-syncSize >= r.end
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// readHeader parses the header at the start of the window: magic, version,
// the class names and the sync marker.
func (r *SeqReader) readHeader() error {
	for n := 64; ; n *= 2 {
		if err := r.fill(n); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return err
		}
		hdr := r.win[r.off:]
		if len(hdr) >= len(seqMagic) && string(hdr[:len(seqMagic)]) != seqMagic {
			return fmt.Errorf("formats: %s is not a SequenceFile", r.path)
		}
		if len(hdr) > len(seqMagic) && hdr[len(seqMagic)] != seqVersion {
			return fmt.Errorf("formats: %s: unsupported SequenceFile version %d", r.path, hdr[len(seqMagic)])
		}
		at, err := r.parseClasses(hdr)
		switch {
		case err == nil && len(hdr) >= at+syncSize:
			copy(r.sync[:], hdr[at:])
			r.off += at + syncSize
			return nil
		case err != nil && err != io.EOF && err != io.ErrUnexpectedEOF:
			return fmt.Errorf("formats: reading SequenceFile header of %s: %w", r.path, err)
		case r.eof:
			return fmt.Errorf("formats: reading SequenceFile header of %s: %w", r.path, io.ErrUnexpectedEOF)
		}
	}
}

// parseClasses reads the class names behind the magic and version of hdr
// and returns where the sync marker starts.
func (r *SeqReader) parseClasses(hdr []byte) (int, error) {
	if len(hdr) <= len(seqMagic) {
		return 0, io.ErrUnexpectedEOF
	}
	r.rd.ResetBytes(hdr[len(seqMagic)+1:])
	var err error
	if r.keyClass, err = r.rd.ReadString(); err != nil {
		return 0, err
	}
	if r.valClass, err = r.rd.ReadString(); err != nil {
		return 0, err
	}
	return len(seqMagic) + 1 + int(r.rd.Count()), nil
}

// enter moves the reader to a split that starts at file offset start > 0
// and scans for the first full sync marker there — the header's own, for a
// split that starts inside it: records resume immediately after it.
func (r *SeqReader) enter(start int64) error {
	if err := r.seek(start); err != nil {
		return err
	}
	switch err := r.scanToSync(); {
	case err == io.EOF:
		r.done = true
	case err != nil:
		return err
	case r.pos()-syncSize >= r.end:
		// The first marker after start lies past the split's end — the
		// split sits inside one large record — so the records behind that
		// marker are another split's, as Next decides for every later
		// marker.
		r.done = true
	}
	return nil
}

// scanToSync advances past the next full sync marker, or to the end of the
// file with io.EOF when there is none. It searches the window in place: a
// window without the marker is dropped except for its last syncSize-1
// bytes, which may begin a marker that the next fill completes.
func (r *SeqReader) scanToSync() error {
	for {
		if i := bytes.Index(r.win[r.off:], r.sync[:]); i >= 0 {
			r.off += i + syncSize
			return nil
		}
		r.off = max(r.off, len(r.win)-(syncSize-1))
		switch err := r.fill(len(r.win) - r.off + 1); err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			r.off = len(r.win)
			return io.EOF
		default:
			return err
		}
	}
}

// ReadOwned switches the reader to owned mode, for a caller that fills fresh
// holders for every record and keeps them; it calls ReadOwned once, before
// its first Next. The unread bytes of the pooled window move to a fresh
// window, and the pooled one goes back.
func (r *SeqReader) ReadOwned() { r.own() }

// KeyClass returns the key class name from the header.
func (r *SeqReader) KeyClass() string { return r.keyClass }

// ValClass returns the value class name from the header.
func (r *SeqReader) ValClass() string { return r.valClass }

// Next fills key and value with the next record of the split. A file that
// ends inside a record or a sync marker is an error, never the end of the
// split.
func (r *SeqReader) Next(key, value wio.Writable) (bool, error) {
	for !r.done {
		if err := r.fill(4); err != nil {
			if err == io.EOF {
				r.done = true
				return false, nil
			}
			return false, r.truncated(err)
		}
		recLen := int32(binary.BigEndian.Uint32(r.win[r.off:]))
		if recLen == syncEscape {
			if err := r.fill(4 + syncSize); err != nil {
				return false, r.truncated(err)
			}
			// The marker's first byte is the boundary position.
			markerStart := r.pos() + 4
			if !bytes.Equal(r.win[r.off+4:r.off+4+syncSize], r.sync[:]) {
				return false, fmt.Errorf("formats: corrupt SequenceFile: bad sync marker at %d", markerStart)
			}
			r.off += 4 + syncSize
			r.done = markerStart >= r.end
			continue
		}
		if recLen < 0 || recLen > maxSeqRecord {
			return false, fmt.Errorf("formats: corrupt SequenceFile: record length %d", recLen)
		}
		if err := r.fill(8); err != nil {
			return false, r.truncated(err)
		}
		keyLen := int32(binary.BigEndian.Uint32(r.win[r.off+4:]))
		if keyLen < 0 || keyLen > recLen {
			return false, fmt.Errorf("formats: corrupt SequenceFile: key length %d of %d", keyLen, recLen)
		}
		if err := r.fill(8 + int(recLen)); err != nil {
			return false, r.truncated(err)
		}
		rec := r.win[r.off+8 : r.off+8+int(recLen)]
		r.off += 8 + int(recLen)
		if err := r.decode(key, rec[:keyLen]); err != nil {
			return false, err
		}
		if err := r.decode(value, rec[keyLen:]); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// decode reads w's fields from b under the reader's ownership rule.
func (r *SeqReader) decode(w wio.Writable, b []byte) error {
	if r.owned {
		r.rd.ResetBytesOwned(b, wio.OwnedFloor)
	} else {
		r.rd.ResetBytes(b)
	}
	err := w.ReadFields(&r.rd)
	r.aliased = r.aliased || r.rd.Aliased()
	return err
}

// truncated is err where the file ended inside a record or a marker: an
// error naming where. Any other read error passes as it is.
func (r *SeqReader) truncated(err error) error {
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		return err
	}
	return fmt.Errorf("formats: SequenceFile %s truncated in the record at %d: %w", r.path, r.pos(), io.ErrUnexpectedEOF)
}

// Progress reports completion in [0,1].
func (r *SeqReader) Progress() float32 { return r.progress() }

// Close closes the underlying file; the copy-mode window goes back to its
// pool. Values decoded in owned mode keep the windows they point into.
func (r *SeqReader) Close() error { return r.close() }

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
// pairs, in owned mode: large byte bodies are views of the read windows.
func ReadSeqFileAll(fs dfs.FileSystem, path string) ([]wio.Pair, error) {
	sr, err := NewSeqReader(fs, path, 0, -1)
	if err != nil {
		return nil, err
	}
	defer sr.Close()
	sr.ReadOwned()
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
