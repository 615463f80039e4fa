package m3r

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"m3r/internal/engine"
	"m3r/internal/spill"
	"m3r/internal/wio"
)

// This file is the budgeted shuffle's record path (x.budgets != nil). Under
// a budget a run has to be sized, may be evicted, and is decoded again at
// the merge, so it is held as bytes from collect to merge and each record is
// serialized once and deserialized once, at the reducer's door:
//
//	collect  key.WriteTo and value.WriteTo into the destination place's
//	         frame — the task's own place included
//	ship     a remote frame crosses the transport; the local one does not
//	arrive   the frame is sliced into spill.Rec views per partition and
//	         sorted under the job's raw key comparator
//	admit    each partition's run reserves its grouped size first, each key
//	         once with its values after it (spill.GroupedLen); an admitted
//	         run is laid out in exactly those bytes, which the reservation
//	         holds, and a refused one is encoded as a grouped spill segment
//	         (spill.EncodeGroupedRun); eviction encodes a resident run
//	         (spill.EncodeGrouped) to the same bytes
//	merge    a resident run and a spilled one enter the tournament as raw
//	         records under one keyed leaf (engine.RawMerge); the tournament
//	         moves once per key group of a run, the key is decoded once per
//	         group, a value when the reducer asks for it
//
// A frame is the second wire layout beside wio.Encoder's stream:
//
//	payload  the serialized objects, back to back, nothing between them
//	table    per record, uvarints: partition, key entry, value entry. An
//	         entry is len<<1 for an object that is the payload's next len
//	         bytes, or off<<1|1 then len for a back-reference to bytes
//	         already passed (identity de-duplication, §3.2.2.3)
//	footer   payload length and record count, 8 bytes each, big-endian
//
// There is no tag byte and no per-object type id: a run holds one key class
// and one value class, fixed per task and kept in memory beside the run.

const frameFooterLen = 16

// identityEntryBytes is what the identity table spends to remember one
// object: an interface key and an offset/length pair. A back-reference
// cannot save more than the bytes it replaces, so an object whose serialized
// form is no larger than this is never remembered — a 4-byte IntWritable or a
// 9-byte Text costs more to look up than to write again; an 80 KB matrix
// block does not.
const identityEntryBytes = 32

// span locates an object's bytes in a frame's payload.
type span struct{ off, len int64 }

// shuffleFrame is one map task's serialized output toward one place.
type shuffleFrame struct {
	w     wio.Writer // slice mode: the payload, and after seal the whole frame
	table []byte
	n     int
	// seen remembers, by identity, objects already in the payload that are
	// worth a back-reference; hits counts the references made.
	seen map[wio.Writable]span
	hits int64
}

// framePool recycles frames across map tasks and jobs as x10's pools recycle
// the unbudgeted path's streams, and shares their ledger: a frame checked out
// counts in encodeBufsOut until putFrame.
var framePool = sync.Pool{New: func() any { return new(shuffleFrame) }}

func getFrame() *shuffleFrame {
	encodeBufsOut.Add(1)
	return framePool.Get().(*shuffleFrame)
}

// putFrame empties f, keeping the buffers it grew, and returns it.
func putFrame(f *shuffleFrame) {
	f.w.ResetBytes(f.w.Bytes()[:0])
	f.table, f.n, f.seen, f.hits = f.table[:0], 0, nil, 0
	framePool.Put(f)
	encodeBufsOut.Add(-1)
}

// add appends one record bound for partition q. With dedup, an object
// already in the payload is written as a back-reference.
func (f *shuffleFrame) add(q int, key, value wio.Writable, dedup bool) error {
	f.table = binary.AppendUvarint(f.table, uint64(q))
	if err := f.addObject(key, dedup); err != nil {
		return err
	}
	if err := f.addObject(value, dedup); err != nil {
		return err
	}
	f.n++
	return nil
}

func (f *shuffleFrame) addObject(v wio.Writable, dedup bool) error {
	// No lookup while nothing is remembered: one in a nil map still checks
	// that the interface key's dynamic type is hashable (runtime.mapKeyError),
	// and a frame of small objects never remembers one.
	if dedup && f.seen != nil {
		if s, ok := f.seen[v]; ok {
			f.table = binary.AppendUvarint(f.table, uint64(s.off)<<1|1)
			f.table = binary.AppendUvarint(f.table, uint64(s.len))
			f.hits++
			return nil
		}
	}
	off := f.w.Count()
	if err := v.WriteTo(&f.w); err != nil {
		return err
	}
	n := f.w.Count() - off
	f.table = binary.AppendUvarint(f.table, uint64(n)<<1)
	if dedup && n > identityEntryBytes {
		if f.seen == nil {
			f.seen = make(map[wio.Writable]span)
		}
		f.seen[v] = span{off, n}
	}
	return nil
}

// seal appends the table and the footer to the payload and returns the
// frame. The bytes stay f's: they are good until putFrame.
func (f *shuffleFrame) seal() []byte {
	payloadLen := f.w.Count()
	f.w.Write(f.table)
	f.w.WriteUint64(uint64(payloadLen))
	f.w.WriteUint64(uint64(f.n))
	return f.w.Bytes()
}

var errCorruptFrame = errors.New("m3r: corrupt shuffle frame")

func corruptFrame(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCorruptFrame, fmt.Sprintf(format, args...))
}

// frameCursor walks a frame's table, bounding every length, offset and
// back-reference against the payload before it is used.
type frameCursor struct {
	payload, table []byte
	tpos, ppos     int
}

func (c *frameCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.table[c.tpos:])
	if n <= 0 {
		return 0, corruptFrame("table ends inside an entry at byte %d", c.tpos)
	}
	c.tpos += n
	return v, nil
}

// object returns a view of the next object's bytes.
func (c *frameCursor) object() ([]byte, error) {
	e, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if e&1 == 0 {
		n := e >> 1
		if n > uint64(len(c.payload)-c.ppos) {
			return nil, corruptFrame("object of %d bytes at payload byte %d of %d", n, c.ppos, len(c.payload))
		}
		b := c.payload[c.ppos : c.ppos+int(n) : c.ppos+int(n)]
		c.ppos += int(n)
		return b, nil
	}
	off := e >> 1
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	// A reference may only reach bytes an earlier object put in the payload.
	if off > uint64(c.ppos) || n > uint64(c.ppos)-off {
		return nil, corruptFrame("back-reference to bytes %d+%d with the payload at byte %d", off, n, c.ppos)
	}
	return c.payload[off : off+n : off+n], nil
}

// record returns the next record and its partition.
func (c *frameCursor) record(R int) (int, spill.Rec, error) {
	q, err := c.uvarint()
	if err != nil {
		return 0, spill.Rec{}, err
	}
	if q >= uint64(R) {
		return 0, spill.Rec{}, corruptFrame("partition %d of %d", q, R)
	}
	k, err := c.object()
	if err != nil {
		return 0, spill.Rec{}, err
	}
	v, err := c.object()
	if err != nil {
		return 0, spill.Rec{}, err
	}
	return int(q), spill.Rec{K: k, V: v}, nil
}

// sliceFrame cuts an arrived frame of a job with R partitions into its
// records, per partition in the order they were collected. The records are
// views of frame, laid out in *scratch, which is grown when it is too short
// and left at their number.
// Whatever the bytes are, the result is records or an error: nothing is
// allocated on the word of a field that has not been checked against the
// frame's own length.
func sliceFrame(frame []byte, R int, scratch *[]spill.Rec) ([][]spill.Rec, error) {
	if len(frame) < frameFooterLen {
		return nil, corruptFrame("%d bytes, shorter than the footer", len(frame))
	}
	body, footer := frame[:len(frame)-frameFooterLen], frame[len(frame)-frameFooterLen:]
	payloadLen, n := binary.BigEndian.Uint64(footer), binary.BigEndian.Uint64(footer[8:])
	if payloadLen > uint64(len(body)) {
		return nil, corruptFrame("payload of %d bytes in a frame body of %d", payloadLen, len(body))
	}
	c := frameCursor{payload: body[:payloadLen], table: body[payloadLen:]}
	// A record is at least three table bytes.
	if n > uint64(len(c.table))/3 {
		return nil, corruptFrame("%d records in a table of %d bytes", n, len(c.table))
	}
	// First pass: check everything and count each partition's records.
	counts := make([]int, R)
	for i := uint64(0); i < n; i++ {
		q, _, err := c.record(R)
		if err != nil {
			return nil, err
		}
		counts[q]++
	}
	if c.tpos != len(c.table) || c.ppos != len(c.payload) {
		return nil, corruptFrame("%d records end at table byte %d of %d, payload byte %d of %d",
			n, c.tpos, len(c.table), c.ppos, len(c.payload))
	}
	// Second pass: lay the views out partition by partition.
	if uint64(cap(*scratch)) < n {
		*scratch = make([]spill.Rec, n)
	}
	*scratch = (*scratch)[:n]
	rest := *scratch
	byPartition := make([][]spill.Rec, R)
	for q, cnt := range counts {
		byPartition[q], rest = rest[:0:cnt], rest[cnt:]
	}
	c.tpos, c.ppos = 0, 0
	for i := uint64(0); i < n; i++ {
		q, rec, err := c.record(R)
		if err != nil {
			return nil, err
		}
		byPartition[q] = append(byPartition[q], rec)
	}
	return byPartition, nil
}

// recScratch recycles the record views arrivals slice frames into; the views
// die with the frame, so the scratch is free again when arriveFrame returns.
var recScratch = sync.Pool{New: func() any { return new([]spill.Rec) }}

// runClasses is what rides in memory beside a budgeted job's serialized
// runs: the one key class and one value class their bytes decode as, the
// dynamic types a collected pair must have to be of those classes, and the
// comparator that orders the serialized keys. The job's declared map-output
// classes fix them when set (Submit); else a task's first pair does.
type runClasses struct {
	engine.MapOutputClasses
	rawCmp wio.RawComparator
}

// declaredRunClasses resolves the job's declared map-output classes.
func declaredRunClasses(rj *engine.ResolvedJob) (runClasses, error) {
	c := runClasses{MapOutputClasses: rj.MapOutput}
	if c.KeyClass != "" {
		var err error
		if c.rawCmp, err = rj.RawKeyComparator(c.KeyClass); err != nil {
			return c, err
		}
	}
	return c, nil
}

// check fixes a class the job left undeclared by the first pair checked,
// then fails a pair that is not of the run's classes. The common case is two
// pointer compares.
func (c *runClasses) check(rj *engine.ResolvedJob, key, value wio.Writable) error {
	if c.KeyType == nil {
		name, err := wio.NameOf(key)
		if err != nil {
			return fmt.Errorf("m3r: map output key: %w", err)
		}
		if c.rawCmp, err = rj.RawKeyComparator(name); err != nil {
			return err
		}
		c.KeyClass, c.KeyType = name, engine.TypeOf(key)
	}
	if c.ValType == nil {
		name, err := wio.NameOf(value)
		if err != nil {
			return fmt.Errorf("m3r: map output value: %w", err)
		}
		c.ValClass, c.ValType = name, engine.TypeOf(value)
	}
	return c.Check(key, value)
}

// frameSet is a budgeted task's collect state: its frame toward each place,
// made when the first pair bound there is collected, and the classes its
// runs hold.
type frameSet struct {
	byPlace []*shuffleFrame
	classes runClasses
}

// collectSerialized is deliver on a budgeted job: the pair is written into
// the frame of its partition's place. Serializing is the copy that protects
// an unmarked map side's reused objects, so it counts as the pair's clone;
// a marked one's pair still counts as aliased — the counters say what the
// map side declared, as on the unbudgeted path.
func (sc *shuffleCollector) collectSerialized(q int, key, value wio.Writable, immutable bool) error {
	if err := sc.frames.classes.check(sc.x.Resolved, key, value); err != nil {
		return err
	}
	d := sc.jobParts[q].place
	f := sc.frames.byPlace[d]
	if f == nil {
		f = getFrame()
		sc.frames.byPlace[d] = f
	}
	if d == sc.place {
		if immutable {
			sc.ctx.Cells.AliasedPairs.Increment(1)
		} else {
			sc.ctx.Cells.ClonedPairs.Increment(1)
		}
		sc.ctx.Cells.LocalShufflePairs.Increment(1)
		return f.add(q, key, value, false)
	}
	sc.ctx.Cells.RemoteShufflePairs.Increment(1)
	// Identity is only sound when emitted objects are never mutated; see
	// deliver.
	return f.add(q, key, value, sc.x.dedup && immutable)
}

// flushFrames is flush's tail on a budgeted job: the task's own place's
// frame arrives first, then each remote frame is shipped and arrives, in
// ascending place order — the order the unbudgeted flush installs and ships
// in, so a task's admission and eviction sequence is the same on every
// execution.
func (sc *shuffleCollector) flushFrames() error {
	if f := sc.frames.byPlace[sc.place]; f != nil {
		if err := sc.deliverFrame(sc.place, f); err != nil {
			return err
		}
	}
	for d, f := range sc.frames.byPlace {
		if f == nil {
			continue
		}
		if err := sc.deliverFrame(d, f); err != nil {
			return err
		}
	}
	return nil
}

// deliverFrame seals f, ships it when place d is not the task's own, and has
// it arrive at d. f returns to the pool on every exit path.
func (sc *shuffleCollector) deliverFrame(d int, f *shuffleFrame) error {
	defer func() {
		sc.frames.byPlace[d] = nil
		putFrame(f)
	}()
	frame := f.seal()
	if d != sc.place {
		var err error
		if frame, err = sc.ship(d, frame, f.hits); err != nil {
			return err
		}
	}
	return sc.x.arriveFrame(sc.ctx, d, sc.src, frame, sc.frames.classes)
}

// ship sends a sealed frame to place d through the runtime's transport (a
// memory loopback on inproc; a round trip over a loopback socket to d's
// echoing frame server on tcp) and returns the bytes as delivered there.
func (sc *shuffleCollector) ship(d int, frame []byte, dedupHits int64) ([]byte, error) {
	e := sc.x.e
	frame, err := e.rt.ShipFrame(sc.place, d, frame)
	if err != nil {
		return nil, fmt.Errorf("m3r: shuffle ship to place %d: %w", d, err)
	}
	e.rt.ChargeShip(sc.ctx.Counters, int64(len(frame)), 1, dedupHits)
	return frame, nil
}

// arriveFrame is the destination side of a budgeted flush: map task src's
// frame toward place is cut into one run per partition, sorted as views of
// the frame, and each run is admitted against place's pool in ascending
// partition order, so what a task admits, evicts and spills is the same from
// one execution to the next. An admitted run is copied into the grouped
// layout and a refused one is encoded to disk from the views. Nothing of
// frame is kept: the views die here, so the sender's pooled buffer is free
// to reuse on return.
func (x *jobExec) arriveFrame(ctx *engine.TaskContext, place, src int, frame []byte, c runClasses) error {
	scratch := recScratch.Get().(*[]spill.Rec)
	defer func() {
		clear(*scratch) // the pool must not pin a frame through its views
		recScratch.Put(scratch)
	}()
	byPartition, err := sliceFrame(frame, len(x.parts), scratch)
	if err != nil {
		return fmt.Errorf("m3r: shuffle frame at place %d: %w", place, err)
	}
	for q, part := range byPartition {
		if len(part) == 0 {
			continue
		}
		spill.SortRecs(part, c.rawCmp)
		if err := x.parts[q].admit(ctx, src, part, c); err != nil {
			return err
		}
	}
	return nil
}

// segmentSource is the merge's view of a resident run: its records, one at
// a time, as views of its grouped bytes. release hands the run's
// reservation back to its place's pool, once: when the merge exhausts the
// run, or abandons it (Close), so a long reduce phase frees budget while it
// runs, for the other jobs sharing the pool. The memory itself lives until
// the last record cut from it has been decoded; the shuffle's claim on the
// bytes, which is what the pool tracks, ends here.
type segmentSource struct {
	c       spill.GroupCursor
	release func()
}

func (s *segmentSource) Next() (spill.Rec, bool, error) {
	rec, ok, err := s.c.Next()
	if ok {
		return rec, true, nil
	}
	s.done()
	if err != nil {
		return spill.Rec{}, false, fmt.Errorf("m3r: resident segment: %w", err)
	}
	return spill.Rec{}, false, nil
}

// done drops the run and releases its reservation, the first time only.
func (s *segmentSource) done() {
	s.c.Reset(nil)
	if s.release != nil {
		s.release()
		s.release = nil
	}
}

func (s *segmentSource) Close() error {
	s.done()
	return nil
}
