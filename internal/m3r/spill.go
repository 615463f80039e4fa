package m3r

import (
	"m3r/internal/engine"
	"m3r/internal/spill"
)

// spillWriteRun is the spill write entry point. Tests swap it to inject
// disk faults: hard open errors, disk-full truncation mid-file, panics.
var spillWriteRun = spill.WriteEncodedFile

// A run goes to disk inline on the flushing map task — a write error or
// panic fails that task and with it the job — in one of two shapes: a run
// the pool refuses at arrival as the sorted views of its frame (spillRecs),
// and a resident run the largest-first policy evicts as its grouped bytes
// (spillSegment). Either becomes the same grouped segment under the job's
// codec — stored or flate blocks behind a segment header — so counters,
// stats and cost charge the stored length. Both return the new file's path.

// spillRecs spills a refused run straight from its records: it is never
// laid out as a resident segment first.
func (x *jobExec) spillRecs(ctx *engine.TaskContext, recs []spill.Rec) (string, error) {
	// Cancelled jobs stop paying for disk.
	if err := x.Lifecycle.Err(); err != nil {
		return "", err
	}
	enc, err := spill.EncodeGroupedRun(recs, x.Codec)
	if err != nil {
		return "", err
	}
	return x.writeSpill(ctx, enc, len(recs))
}

// spillSegment spills an evicted resident run of nrecs records.
func (x *jobExec) spillSegment(ctx *engine.TaskContext, seg []byte, nrecs int) (string, error) {
	if err := x.Lifecycle.Err(); err != nil {
		return "", err
	}
	enc, err := spill.EncodeGrouped(seg, x.Codec)
	if err != nil {
		return "", err
	}
	return x.writeSpill(ctx, enc, nrecs)
}

// writeSpill writes one encoded run to a new spill file and charges it.
func (x *jobExec) writeSpill(ctx *engine.TaskContext, enc spill.EncodedRun, nrecs int) (string, error) {
	path, err := x.spillPath()
	if err != nil {
		return "", err
	}
	if _, err := spillWriteRun(path, enc); err != nil {
		return "", err
	}
	x.chargeSpill(ctx, enc, nrecs)
	return path, nil
}
