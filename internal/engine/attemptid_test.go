package engine

import (
	"fmt"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/formats"
	"m3r/internal/sim"
)

// TestAttemptIDsMatchHadoopFormat holds the one attempt-id layout both
// engines share to a reference that shares no code with it: fmt.Sprintf of
// Hadoop's formats, job_<engine>_<seq, four digits> and
// attempt_<job>_<m|r>_<index, six digits>_<attempt>. For a host of each
// engine's name, every id — laid out for a first attempt, or cut for a
// retry or an index past the layout — is the reference's, for map and
// reduce kinds, at indexes either side of the six-digit pad and at attempts
// above 0.
func TestAttemptIDsMatchHadoopFormat(t *testing.T) {
	for _, name := range []string{"m3r", "hadoop"} {
		local, err := dfs.NewLocal(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		h := &Host{Name: name, FSID: dfs.RegisterInstance(local), FS: local, Stats: sim.NewStats()}
		h.SetPlaces(2)
		for seq := 1; seq <= 2; seq++ {
			job := conf.NewJob()
			job.SetOutputFormatClass(formats.NullOutputFormatName)
			j, err := h.Open(job, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("job_%s_%04d", name, seq); j.ID != want {
				t.Errorf("job id %q, want %q", j.ID, want)
			}
			j.LayOutTasks(10, 10)
			for _, kind := range []TaskKind{MapTask, ReduceTask} {
				for _, index := range []int{0, 9, 99999, 100000} {
					for _, attempt := range []int{0, 1, 3, 12} {
						want := fmt.Sprintf("attempt_%s_%c_%06d_%d", j.ID, kind[0], index, attempt)
						if got := j.attemptID(kind, index, attempt); got != want {
							t.Errorf("%s: attempt id %q, want %q", name, got, want)
						}
					}
				}
			}
			j.Lifecycle.Stop()
		}
		dfs.DropInstance(h.FSID)
	}
}
