package formats

import (
	"io"
	"sync"

	"m3r/internal/dfs"
	"m3r/internal/spill"
)

// The read window. Both record readers, SeqReader and LineRecordReader,
// decode records where they lie in one byte window, which they fill by
// reading the file straight into it: no buffered reader between the file
// and the window, no copy of a record before it is decoded or cut.
const (
	// readMin is the shortest read a window asks for while room allows: a
	// read is a system call (a pread of an HDFS block file), so a split
	// costs one per 64 KiB or more, not one per record.
	readMin = 64 << 10
	// copyWindow is the pooled copy-mode window: a record of up to readMin
	// bytes left unread at a fill still leaves readMin to read into.
	copyWindow = 2 * readMin
	// ownedWindowMax caps a fresh owned window; a split's remainder that is
	// shorter sizes it instead.
	ownedWindowMax = 1 << 20
	// probeBytes is the room an owned window keeps past the split's end:
	// enough for the read that finds the end of the file, or for the sync
	// escape and marker that end the split.
	probeBytes = 4 + syncSize
	// pastEnd is how far past the split's end a read reaches when room
	// allows, beyond what the record being read needs.
	pastEnd = 4 << 10
)

// copyWindows pools the copy-mode windows of every reader.
var copyWindows = sync.Pool{New: func() any {
	b := make([]byte, copyWindow)
	return &b
}}

// window is a record reader's byte window over one split of a file.
//
// It has two ownership rules. In copy mode (the default) the window is
// reused from record to record and from reader to reader (pooled), and
// nothing a reader returns points into it. In owned mode (SeqReader only)
// records may be views of the window: a window that any record aliases
// keeps every byte it has read — reads only go into the room behind them,
// and a fill that needs more gets a fresh window of its own — while one
// that no record aliases is reused.
type window struct {
	file dfs.File
	// The split is [start, end): a fill reads to its end, and pastEnd
	// beyond, when the window has room.
	start, end int64
	// win[off:] are the unread bytes, and win[0] is the file's byte at
	// offset base. eof: the file has nothing past win.
	win  []byte
	off  int
	base int64
	eof  bool
	// pooled is the copy-mode window's pool handle, nil once it went back.
	pooled  *[]byte
	owned   bool
	aliased bool // owned: a record decoded from win points into it
}

// open starts the window on file at offset 0 with a pooled copy-mode
// window, for the split [start, end).
func (w *window) open(file dfs.File, start, end int64) {
	w.file, w.start, w.end = file, start, end
	w.pooled = copyWindows.Get().(*[]byte)
	w.win = (*w.pooled)[:0]
}

// pos is the file offset of the next unread byte.
func (w *window) pos() int64 { return w.base + int64(w.off) }

// seek moves the next unread byte to file offset at: inside the window
// when it holds at, else by seeking the file and emptying the window.
func (w *window) seek(at int64) error {
	if at >= w.base && at <= w.base+int64(len(w.win)) {
		w.off = int(at - w.base)
		return nil
	}
	if _, err := w.file.Seek(at, io.SeekStart); err != nil {
		return err
	}
	w.win, w.off, w.base, w.eof = w.win[:0], 0, at, false
	return nil
}

// fill makes n unread bytes available in the window. It returns io.EOF when
// the file ends with no byte unread and io.ErrUnexpectedEOF when it ends
// with fewer than n.
func (w *window) fill(n int) error {
	for len(w.win)-w.off < n {
		if w.eof {
			if w.off == len(w.win) {
				return io.EOF
			}
			return io.ErrUnexpectedEOF
		}
		w.makeRoom(n)
		// Read to the split's end, or a little past it, in one read when
		// the window has room; never less than the record needs.
		readAt := w.base + int64(len(w.win))
		room := int64(cap(w.win) - len(w.win))
		ask := max(n-(len(w.win)-w.off), int(min(room, max(w.end-readAt, pastEnd))))
		m, err := w.file.Read(w.win[len(w.win) : len(w.win)+ask])
		w.win = w.win[:len(w.win)+m]
		if err == io.EOF {
			w.eof = true
		} else if err != nil {
			return err
		}
	}
	return nil
}

// makeRoom readies the window for a read towards n unread bytes. The read
// goes into the room behind the bytes already read when that room takes
// what is missing — and readMin, unless records alias the window, whose
// read bytes then stay as they are. Otherwise the unread bytes move to the
// front of a window that no record aliases and that can hold n, or whole
// to a fresh window: a record cut by the last fill moves whole. A fresh
// copy-mode window is at least twice the one it replaces, so a record that
// outgrows window after window — a line whose end no read has found yet,
// asked for a byte at a time — is copied O(its length) times in all.
func (w *window) makeRoom(n int) {
	unread, room := len(w.win)-w.off, cap(w.win)-len(w.win)
	switch {
	case room >= n-unread && (room >= readMin || w.aliased):
	case !w.aliased && cap(w.win) >= n:
		w.base += int64(w.off)
		w.win = w.win[:copy(w.win, w.win[w.off:])]
		w.off = 0
	case w.owned:
		w.fresh(max(n, w.ownedWindow()))
	default:
		w.fresh(max(n, 2*cap(w.win)))
	}
}

// ownedWindow is the size of a fresh owned window: the rest of the split,
// up to ownedWindowMax, and room to probe past its end.
func (w *window) ownedWindow() int {
	return int(min(ownedWindowMax, max(w.end-w.pos(), 0)+probeBytes))
}

// fresh moves the unread bytes to a new window of size bytes, which no
// record aliases yet; a pooled window goes back.
func (w *window) fresh(size int) {
	b := make([]byte, len(w.win)-w.off, size)
	copy(b, w.win[w.off:])
	w.release()
	w.base += int64(w.off)
	w.win, w.off, w.aliased = b, 0, false
}

// release returns the copy-mode window to its pool, poisoned under
// spill.PoisonRecycledBlocks; the reader no longer holds it.
func (w *window) release() {
	if w.pooled == nil {
		return
	}
	spill.PoisonRecycled((*w.pooled)[:copyWindow])
	copyWindows.Put(w.pooled)
	w.pooled = nil
}

// progress reports completion of the split in [0,1].
func (w *window) progress() float32 {
	if w.end == w.start {
		return 1
	}
	return min(float32(w.pos()-w.start)/float32(w.end-w.start), 1)
}

// close closes the file; the copy-mode window goes back to its pool.
// Values decoded in owned mode keep the windows they point into.
func (w *window) close() error {
	w.release()
	w.win = nil
	return w.file.Close()
}
