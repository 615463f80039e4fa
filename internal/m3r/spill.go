package m3r

import (
	"m3r/internal/engine"
	"m3r/internal/spill"
)

// spillWriteRun is the spill write entry point. Tests swap it to inject
// disk faults: hard open errors, disk-full truncation mid-file, panics.
var spillWriteRun = spill.WriteEncodedFile

// spillSegment moves one resident-format run of nrecs records to disk — an
// overflow or a largest-first eviction — inline on the flushing map task: a
// write error or panic fails that task and with it the job. The segment
// passes through the job's codec to its exact on-disk bytes — stored or
// flate blocks behind a segment header — so counters, stats and cost charge
// the stored length. It returns the new file's path.
func (x *jobExec) spillSegment(ctx *engine.TaskContext, seg []byte, nrecs int) (string, error) {
	// Cancelled jobs stop paying for disk.
	if err := x.Lifecycle.Err(); err != nil {
		return "", err
	}
	enc, err := spill.EncodeSegment(seg, x.Codec)
	if err != nil {
		return "", err
	}
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
