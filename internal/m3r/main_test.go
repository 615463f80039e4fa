package m3r

import (
	"testing"

	"m3r/internal/lint/leakcheck"
	"m3r/internal/spill"
)

// TestMain poisons recycled spill blocks and budgeted collect buffers, so a
// record kept past its stream's lookbehind (spill.Stream) or past its
// task's flush (spill.Buffer) reads garbage, and fails the package
// when place goroutines or merge workers outlive the tests — the static
// loopcancel/closecheck invariants' runtime counterpart (DESIGN.md "Static
// analysis").
func TestMain(m *testing.M) {
	spill.PoisonRecycledBlocks.Store(true)
	leakcheck.Main(m)
}
