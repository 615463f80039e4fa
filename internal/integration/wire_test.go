package integration_test

import (
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/lab"
	"m3r/internal/matrix"
	"m3r/internal/wordcount"
)

// wireCounts are the counters of a budgeted shuffle that its wire form
// decides: the bytes that crossed between places, the objects a
// back-reference replaced, and where the pairs went. They depend on the
// input and the placement of splits and partitions, not on the schedule.
type wireCounts struct {
	remoteBytes, dedupHits, localPairs, remotePairs int64
}

func wireCountsOf(rep *engine.Report) wireCounts {
	c := rep.Counters
	return wireCounts{
		remoteBytes: c.Value(counters.TaskGroup, counters.RemoteShuffleBytes),
		dedupHits:   c.Value(counters.M3RGroup, counters.DedupHits),
		localPairs:  c.Value(counters.M3RGroup, counters.LocalShufflePairs),
		remotePairs: c.Value(counters.M3RGroup, counters.RemoteShufflePairs),
	}
}

// TestBudgetedShuffleWire pins the budgeted shuffle's wire at 4 places: a
// WordCount without a combiner, whose small records back-reference nothing,
// and a matvec multiply, whose mappers are ImmutableOutput so a vector
// block sent to one place twice crosses once. The constants were measured
// on the frame layout of DESIGN.md "Serialization"; a change to how a
// remote buffer is encoded moves them.
func TestBudgetedShuffleWire(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 4, ShuffleBudgetBytes: -1})
	if err := wordcount.Generate(c.FS, "/data/wire", 64<<10, 7); err != nil {
		t.Fatal(err)
	}
	wc := wordcount.NewJob("/data/wire", "/out/wire", 4, false)
	wc.Unset(conf.KeyCombinerClass)
	wc.SetInt64(conf.KeyM3RShuffleBudget, 1<<20)
	rep, err := c.M3R.Submit(wc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := wireCountsOf(rep), (wireCounts{98912, 0, 1131, 6158}); got != want {
		t.Errorf("wordcount: %+v, want %+v", got, want)
	}

	cfg := matrix.Config{RowBlocks: 8, ColBlocks: 8, BlockSize: 20, Sparsity: 0.05, Partitions: 4, Dir: "/mvwire", Seed: 99}
	if err := matrix.Generate(c.FS, cfg); err != nil {
		t.Fatal(err)
	}
	multiply := matrix.IterationJobs(cfg, cfg.VPath(), cfg.Dir+"/temp_V_1", 0)[0]
	multiply.SetInt64(conf.KeyM3RShuffleBudget, 1<<20)
	if rep, err = c.M3R.Submit(multiply); err != nil {
		t.Fatal(err)
	}
	if got, want := wireCountsOf(rep), (wireCounts{4692, 24, 80, 48}); got != want {
		t.Errorf("matvec multiply: %+v, want %+v", got, want)
	}
}
