package hadoop

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"m3r/internal/conf"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/mapred"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/wio"
)

// runMapTask is the body of one map task attempt on node (engine.Job.RunTask
// is its envelope): new "JVM", read the split, sort/spill the output, merge
// spills into the final map output file served to reducers (§3.1).
func (r *jobRun) runMapTask(ctx *engine.TaskContext, t *pendingTask, place int, node string, attempt int) error {
	r.engine.cost.ChargeJVMStart(r.engine.Stats())
	taskJob := ctx.Job
	runner := r.Resolved.NewMapRun()
	runner.Configure(taskJob)

	reader, err := r.Resolved.InputFormat.GetRecordReader(t.split, taskJob)
	if err != nil {
		return err
	}
	defer reader.Close()

	if r.Resolved.MapOnly {
		return r.runMapOnlyTask(t, ctx, place, runner, reader)
	}

	// The sort buffer bound follows Hadoop's io.sort.mb; io.sort.bytes
	// overrides it at byte granularity (tests use it to force spills).
	limit := int64(taskJob.GetInt(conf.KeySortMB, 4)) << 20
	if v := taskJob.GetInt64(conf.KeySortBytes, 0); v > 0 {
		limit = v
	}
	buf := &sortBuffer{
		run: r,
		// Attempt-scoped, so a retried attempt never aliases the files of a
		// failed predecessor mid-teardown.
		taskDir: filepath.Join(r.jobDir, fmt.Sprintf("map_%06d_%d", t.index, attempt)),
		kv:      spill.GetBuffer(),
		parts:   r.Resolved.NumReducers,
		limit:   limit,
		ctx:     ctx,
		place:   place,
	}
	defer buf.kv.Release() // no record outlives its task
	if err := os.MkdirAll(buf.taskDir, 0o755); err != nil {
		return err
	}
	rawCmp, err := r.Resolved.RawKeyComparator(r.Conf.MapOutputKeyClass())
	if err != nil {
		return err
	}
	buf.cmp = rawCmp
	partitioner := r.Resolved.NewPartitioner()

	lc := r.Lifecycle
	collector := mapred.CollectorFunc(func(key, value wio.Writable) error {
		// Per-record cancel check: one atomic load; the kill unwinds
		// through the mapper as an ordinary collect error.
		if err := lc.Err(); err != nil {
			return err
		}
		if err := r.Resolved.MapOutput.Check(key, value); err != nil {
			return err
		}
		p := partitioner.GetPartition(key, value, r.Resolved.NumReducers)
		if p < 0 || p >= r.Resolved.NumReducers {
			return fmt.Errorf("hadoop: partitioner returned %d of %d", p, r.Resolved.NumReducers)
		}
		return buf.collect(p, key, value)
	})

	if err := runner.Run(reader, collector, ctx); err != nil {
		return err
	}
	out, err := buf.finish(t.index, node)
	if err != nil {
		return err
	}
	out.node = node
	r.mu.Lock()
	r.mapOutputs[t.index] = out
	r.mu.Unlock()
	return nil
}

// runMapOnlyTask sends map output straight to the output format (§5.3:
// "map-only jobs ... output from the mapper is sent directly to output").
func (r *jobRun) runMapOnlyTask(t *pendingTask, ctx *engine.TaskContext, place int,
	runner engine.MapRun, reader formats.RecordReader) error {
	out, err := r.OpenTaskOutput(ctx.Job, ctx.TaskID, fmt.Sprintf("part-%05d", t.index))
	if err != nil {
		return err
	}
	// Deferred, so a panicking mapper aborts its attempt too.
	defer out.Abort()
	outputCell := &ctx.Cells.MapOutputRecords
	lc := r.Lifecycle
	collector := mapred.CollectorFunc(func(key, value wio.Writable) error {
		if err := lc.Err(); err != nil {
			return err
		}
		outputCell.Increment(1)
		return out.Write(key, value)
	})
	if err := runner.Run(reader, collector, ctx); err != nil {
		return err
	}
	span := ctx.Begin(engine.PhaseCommit, place)
	defer span.End()
	return out.Commit()
}

// sortBuffer is the map side's in-memory output buffer with spill-to-disk,
// Hadoop's io.sort.mb machinery. Its records live in kv, serialized the
// moment they are collected, as Hadoop does; limit bounds their accounted
// size (spill.Rec.Size), not the memory kv holds.
type sortBuffer struct {
	run     *jobRun
	taskDir string
	kv      *spill.Buffer
	parts   int
	bytes   int64
	limit   int64
	cmp     wio.RawComparator
	ctx     *engine.TaskContext
	place   int        // the task's node's index, for its spans
	pair    wio.Writer // slice mode: one combined pair at a time, reused

	spills []spillFile
}

// spillFile records one on-disk spill and its per-partition segments.
type spillFile struct {
	path     string
	segments []spill.Segment
}

// collect serializes one map-output record of partition p into the buffer,
// counts it, and spills when the buffer reaches its limit.
func (b *sortBuffer) collect(p int, key, value wio.Writable) error {
	r, err := b.kv.Collect(p, key, value, false)
	if err != nil {
		return err
	}
	b.ctx.Cells.MapOutputRecords.Increment(1)
	b.ctx.Cells.MapOutputBytes.Increment(int64(len(r.K) + len(r.V)))
	b.bytes += r.Size()
	if b.bytes >= b.limit {
		return b.spill()
	}
	return nil
}

// spill sorts each partition (running the combiner when configured),
// writes one spill file, and empties the buffer.
func (b *sortBuffer) spill() error {
	span := b.ctx.Begin(engine.PhaseSpill, b.place)
	defer span.End()
	path := filepath.Join(b.taskDir, fmt.Sprintf("spill_%d", len(b.spills)))
	f, err := createLocalFile(path)
	if err != nil {
		return err
	}
	w := getSpillWriter(f)
	defer putSpillWriter(w)
	var segments []spill.Segment
	var off, rawTotal, spilled int64
	b.kv.LayOut(b.parts)
	for p := range b.parts {
		// One SegmentWriter per partition: each segment carries its own
		// header, so a reducer's byte-range fetch stays self-describing.
		sw := spill.NewSegmentWriter(w, b.run.Codec)
		n, err := b.writePartition(sw, b.kv.Partition(p))
		if err != nil {
			f.Close()
			return err
		}
		segLen, segRaw, err := sw.Finish()
		if err != nil {
			f.Close()
			return err
		}
		spilled += int64(n) // what was written: the combiner's output, if any
		segments = append(segments, spill.Segment{Off: off, Len: segLen})
		off += segLen
		rawTotal += segRaw
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b.kv.Reset()
	b.bytes = 0
	b.spills = append(b.spills, spillFile{path: path, segments: segments})
	b.ctx.Cells.SpilledRecords.Increment(spilled)
	b.chargeSpill(off, rawTotal, 1, off)
	return nil
}

// spillWriters buffer the spill files and the merged map output file that
// map tasks write, 4 KiB each as bufio.NewWriter's, pooled across tasks.
var spillWriters = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}

func getSpillWriter(f *os.File) *bufio.Writer {
	w := spillWriters.Get().(*bufio.Writer)
	w.Reset(f)
	return w
}

// putSpillWriter pools w, dropping its file and whatever it did not flush.
func putSpillWriter(w *bufio.Writer) {
	w.Reset(nil)
	spillWriters.Put(w)
}

// chargeSpill accounts one file of sorted map output: its stored and raw
// bytes, whether it counts as a spill file, and the bytes the modelled disk
// moved for it. These go to the engine's stats directly — the Hadoop engine
// reports no SPILLED_BYTES counters, so the task has no cell for them.
func (b *sortBuffer) chargeSpill(stored, raw, files, diskBytes int64) {
	stats := b.run.engine.Stats()
	stats.Add(sim.SpillBytes, stored)
	stats.Add(sim.SpillRawBytes, raw)
	stats.Add(sim.SpillFiles, files)
	b.run.engine.cost.ChargeDisk(stats, diskBytes)
}

// writePartition sorts one partition's records into sw, applying the
// combiner when the job has one, and returns how many records it wrote.
func (b *sortBuffer) writePartition(sw *spill.SegmentWriter, recs []spill.Rec) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	span := b.ctx.Begin(engine.PhaseSort, b.place)
	defer span.End()
	spill.SortRecs(recs, b.cmp)
	if !b.run.Resolved.HasCombiner {
		for _, r := range recs {
			if err := sw.Write(r); err != nil {
				return 0, err
			}
		}
		return len(recs), nil
	}
	return b.combine(sw, recs)
}

// combine runs the combiner over one partition's sorted records as Hadoop's
// sortAndSpill does, over a raw iterator: RawMerge decodes a key once per
// group, a value only when asked. Each combined pair is serialized into one
// scratch that sw copies at once; a combiner preserves keys, so its output
// stays sorted.
func (b *sortBuffer) combine(sw *spill.SegmentWriter, recs []spill.Rec) (int, error) {
	rj := b.run.Resolved
	run := rj.NewCombineRun()
	run.Configure(rj.Job)
	m, err := rj.OpenRawMerge([]engine.RecSource{&sortedRecs{recs: recs}}, b.run.Conf.MapOutputKeyClass(), len(recs), b.run.Lifecycle)
	if err != nil {
		return 0, err
	}
	defer m.Close()
	n := 0
	out := mapred.CollectorFunc(func(key, value wio.Writable) error {
		b.pair.ResetBytes(b.pair.Bytes()[:0])
		if err := key.WriteTo(&b.pair); err != nil {
			return err
		}
		kl := len(b.pair.Bytes())
		if err := value.WriteTo(&b.pair); err != nil {
			return err
		}
		kv := b.pair.Bytes()
		n++
		return sw.Write(spill.Rec{K: kv[:kl:kl], V: kv[kl:]})
	})
	if err := m.Reduce(b.run.Conf.MapOutputValueClass(), run, out, b.ctx, true); err != nil {
		return 0, err
	}
	b.ctx.Cells.CombineOutputRecords.Increment(int64(n))
	return n, nil
}

// sortedRecs is the combiner's one merge source: a partition's sorted
// records, views of the sort buffer's arena, which holds them until the
// spill is written.
type sortedRecs struct{ recs []spill.Rec }

func (s *sortedRecs) Next() (spill.Rec, bool, error) {
	if len(s.recs) == 0 {
		return spill.Rec{}, false, nil
	}
	r := s.recs[0]
	s.recs = s.recs[1:]
	return r, true, nil
}

func (s *sortedRecs) Close() error { return nil }

// finish flushes the remaining buffer and merges all spills into the final
// map output file.
func (b *sortBuffer) finish(taskIndex int, node string) (*mapOutput, error) {
	if err := b.spill(); err != nil {
		return nil, err
	}
	if len(b.spills) == 1 {
		// Single spill: it already is the map output file.
		return &mapOutput{file: b.spills[0].path, segments: b.spills[0].segments}, nil
	}
	// Multi-spill: k-way merge each partition into file.out, re-reading
	// and re-writing every byte (Hadoop's on-disk merge).
	span := b.ctx.Begin(engine.PhaseSpill, b.place)
	defer span.End()
	outPath := filepath.Join(b.taskDir, "file.out")
	f, err := createLocalFile(outPath)
	if err != nil {
		return nil, err
	}
	w := getSpillWriter(f)
	defer putSpillWriter(w)
	segments := make([]spill.Segment, b.parts)
	var off, rawTotal int64
	for p := range b.parts {
		var streams []engine.RecSource
		for _, sp := range b.spills {
			s, err := spill.OpenSegment(sp.path, sp.segments[p])
			if err != nil {
				engine.CloseAllOnErr(streams)
				f.Close()
				return nil, err
			}
			streams = append(streams, s)
		}
		m, err := b.run.Resolved.OpenRawMerge(streams, b.run.Conf.MapOutputKeyClass(), -1, nil)
		if err != nil {
			f.Close()
			return nil, err
		}
		sw := spill.NewSegmentWriter(w, b.run.Codec)
		for {
			// Per-record cancel check: the on-disk merge re-reads every spilled
			// byte, so a killed job must not keep paying for it.
			if err := b.run.Lifecycle.Err(); err != nil {
				m.Close()
				f.Close()
				return nil, err
			}
			r, ok, err := m.Next()
			if err != nil {
				m.Close()
				f.Close()
				return nil, err
			}
			if !ok {
				break
			}
			if err := sw.Write(r); err != nil {
				m.Close()
				f.Close()
				return nil, err
			}
		}
		m.Close()
		segLen, segRaw, err := sw.Finish()
		if err != nil {
			f.Close()
			return nil, err
		}
		segments[p] = spill.Segment{Off: off, Len: segLen}
		off += segLen
		rawTotal += segRaw
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	b.chargeSpill(off, rawTotal, 0, 2*off) // read spills + write merged
	for _, sp := range b.spills {
		os.Remove(sp.path)
	}
	return &mapOutput{file: outPath, segments: segments}, nil
}
