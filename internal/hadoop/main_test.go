package hadoop

import (
	"os"
	"testing"

	"m3r/internal/spill"
)

// TestMain poisons recycled spill blocks and sort-buffer chunks, so a
// record kept past its stream's lookbehind (spill.Stream) or past its
// spill (spill.Buffer) reads garbage.
func TestMain(m *testing.M) {
	spill.PoisonRecycledBlocks.Store(true)
	os.Exit(m.Run())
}
