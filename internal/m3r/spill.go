package m3r

import "m3r/internal/spill"

// spillWriteRun is the spill write entry point. Tests swap it to inject
// disk faults: hard open errors, disk-full truncation mid-file, panics.
var spillWriteRun = spill.WriteEncodedFile

// writeSpill writes one overflow run — already encoded to its exact on-disk
// segment bytes — and installs it in its partition, inline on the flushing
// map task: a write error or panic fails that task and with it the job. The
// key/value class names ride along so the merge leaf can decode the run.
func (pi *partitionInput) writeSpill(src int, enc spill.EncodedRun, keyClass, valClass string) error {
	x := pi.x
	// Cancelled jobs stop paying for disk.
	if err := x.lc.Err(); err != nil {
		return err
	}
	path, err := x.spillPath()
	if err != nil {
		return err
	}
	if _, err := spillWriteRun(path, enc); err != nil {
		return err
	}
	pi.install(&sourceRun{src: src, spill: &spilledRun{path: path, keyClass: keyClass, valClass: valClass}})
	return nil
}
