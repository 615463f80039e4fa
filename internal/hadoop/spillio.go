package hadoop

import (
	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/spill"
	"m3r/internal/wio"
)

// The spill record format and segment reader live in internal/spill, shared
// with the M3R engine's budget-exceeding shuffle runs; the k-way merge is
// engine.Tournament, the same loser tree the in-memory merge uses. This
// file only binds the two to the Hadoop engine's raw-record streams.

// merger streams the union of several sorted record sources in sorted
// order: engine.SourceMerge instantiated at raw spill records, ceil(log2 k)
// raw-key comparisons per record with no heap push/pop bookkeeping. Ties
// break by source index for determinism.
type merger = engine.SourceMerge[spill.Rec]

// newMerger opens a merge over the given streams, closing them on error.
func newMerger(streams []*spill.Stream, cmp wio.RawComparator) (*merger, error) {
	return engine.NewSourceMerge(engine.WidenSources[spill.Rec](streams), recCompare(cmp))
}

// newStagedMerger opens a merge over the given streams, staging it across
// concurrent subset mergers when cfg and the segment count warrant (the
// reduce-side sort phase of a task with many map segments); otherwise it is
// exactly newMerger. Output is byte-identical either way. stagesCell, when
// non-nil, observes the engaged stage count.
func newStagedMerger(streams []*spill.Stream, cmp wio.RawComparator,
	cfg engine.MergeConfig, stagesCell *counters.Counter) (*merger, error) {
	rc := recCompare(cmp)
	return engine.NewSourceMerge(engine.StageIfConfigured(engine.WidenSources[spill.Rec](streams), rc, cfg, stagesCell), rc)
}

// recCompare adapts a raw key comparator to the record-element shape the
// tournament and staging take.
func recCompare(cmp wio.RawComparator) func(a, b spill.Rec) int {
	return func(a, b spill.Rec) int { return cmp.CompareRaw(a.K, b.K) }
}
