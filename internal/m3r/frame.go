package m3r

import (
	"errors"
	"fmt"

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
//	         spill.Buffer — the task's own place included
//	ship     a remote buffer crosses as a frame (spill/frame.go), chunk by
//	         chunk, and is indexed again where it arrives; the local one is
//	         laid out as is
//	arrive   each partition's views are sorted under the raw key comparator
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

// runClasses is what rides in memory beside a task's serialized pairs: the
// one key class and one value class their bytes decode as, the dynamic types
// a delivered pair must have to be of those classes, and, on a budgeted job,
// the comparator that orders the serialized keys. The job's declared
// map-output classes fix them when set (Submit); else a task's first pair
// does.
type runClasses struct {
	engine.MapOutputClasses
	rawCmp wio.RawComparator
}

// declaredRunClasses resolves a budgeted job's declared map-output classes.
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
func (c *runClasses) check(key, value wio.Writable) error {
	if c.KeyType == nil {
		name, err := wio.NameOf(key)
		if err != nil {
			return fmt.Errorf("m3r: map output key: %w", err)
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

// getBuffer, getObjectBuffer and putBuffer check buffers in and out through
// encodeBufsOut.
func getBuffer() *spill.Buffer {
	encodeBufsOut.Add(1)
	return spill.GetBuffer()
}

func getObjectBuffer() *spill.Buffer {
	encodeBufsOut.Add(1)
	return spill.GetObjectBuffer()
}

func putBuffer(b *spill.Buffer) {
	b.Release()
	encodeBufsOut.Add(-1)
}

// collectSerialized is deliver on a budgeted job: the pair is written into
// the buffer of its partition's place. Serializing is the copy that protects
// an unmarked map side's reused objects, so it counts as the pair's clone;
// a marked one's pair still counts as aliased — the counters say what the
// map side declared, as on the unbudgeted path.
func (sc *shuffleCollector) collectSerialized(q int, key, value wio.Writable, immutable bool) error {
	d := sc.x.parts[q].place
	b := sc.bufs[d]
	if b == nil {
		b = getBuffer()
		sc.bufs[d] = b
	}
	if d == sc.place {
		sc.ctx.Cells.LocalShufflePairs.Increment(1)
		if immutable {
			sc.ctx.Cells.AliasedPairs.Increment(1)
		} else {
			sc.ctx.Cells.ClonedPairs.Increment(1)
		}
		_, err := b.Collect(q, key, value, false)
		return err
	}
	sc.ctx.Cells.RemoteShufflePairs.Increment(1)
	// Identity is only sound when emitted objects are never mutated; see
	// deliver.
	_, err := b.Collect(q, key, value, sc.x.dedup && immutable)
	return err
}

// flushFrames is flush's tail on a budgeted job: the task's own place's
// buffer arrives first, then each remote buffer is shipped and arrives, in
// ascending place order — the order the unbudgeted flush installs and ships
// in, so a task's admission and eviction sequence is the same on every
// execution.
func (sc *shuffleCollector) flushFrames() error {
	if sc.classes.rawCmp == nil && sc.classes.KeyType != nil {
		var err error
		if sc.classes.rawCmp, err = sc.x.Resolved.RawKeyComparator(sc.classes.KeyClass); err != nil {
			return err
		}
	}
	for i := -1; i < sc.P; i++ {
		d := i
		if i < 0 {
			d = sc.place
		}
		if b := sc.bufs[d]; b != nil {
			if err := sc.deliverFrame(d, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// deliverFrame has b arrive at place d: laid out from its own index at the
// task's place, else shipped (shipBuffer) and indexed as it arrived. b
// returns to the pool on every exit path.
func (sc *shuffleCollector) deliverFrame(d int, b *spill.Buffer) error {
	defer func() {
		sc.bufs[d] = nil
		putBuffer(b)
	}()
	var span engine.Span
	if d == sc.place {
		b.LayOut(sc.R)
		span = sc.ctx.Begin(engine.PhaseArrive, d)
	} else {
		ship, err := sc.shipBuffer(d, b)
		if err != nil {
			return err
		}
		span = ship.Then(engine.PhaseArrive, d)
	}
	defer span.End()
	return sc.x.arriveFrame(sc.ctx, sc.src, b, sc.classes)
}

// shipBuffer carries b to place d through the runtime's transport, a frame a
// piece (inproc's memory loopback, or a round trip each to d's echoing frame
// server over tcp), and indexes it as it arrived there. It returns its ship
// span still open, for the caller to hand on to the arrival with one clock
// reading (Span.Then); on error the span is closed.
func (sc *shuffleCollector) shipBuffer(d int, b *spill.Buffer) (engine.Span, error) {
	span := sc.ctx.Begin(engine.PhaseShip, sc.place)
	rt := sc.x.e.rt
	n, frames, hits, err := b.Ship(sc.R, func(piece []byte) ([]byte, error) { return rt.ShipFrame(sc.place, d, piece) })
	if err != nil {
		span.End()
		if errors.Is(err, spill.ErrCorruptFrame) {
			return engine.Span{}, fmt.Errorf("m3r: shuffle decode at place %d: %w", d, err)
		}
		return engine.Span{}, fmt.Errorf("m3r: shuffle ship to place %d: %w", d, err)
	}
	rt.ChargeShip(sc.ctx.Counters, int64(n), frames, hits)
	return span, nil
}

// arriveFrame is the destination side of a budgeted flush: map task src's
// records toward one place, laid out in b, are sorted per partition and each
// partition's run is admitted against the place's pool in ascending
// partition order, so what a task admits, evicts and spills is the same from
// one execution to the next. An admitted run is copied into the grouped
// layout, a refused one encoded to disk from the views; the views die here.
func (x *jobExec) arriveFrame(ctx *engine.TaskContext, src int, b *spill.Buffer, c runClasses) error {
	for q := range x.parts {
		part := b.Partition(q)
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
