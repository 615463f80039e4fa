package integration_test

import (
	"os"
	"testing"

	"m3r/internal/hadoop"
	"m3r/internal/spill"
)

// TestMain poisons recycled spill blocks and Hadoop sort-buffer chunks, so
// a record kept past its stream's lookbehind (spill.Stream) or past its map
// task's spill reads garbage.
func TestMain(m *testing.M) {
	spill.PoisonRecycledBlocks.Store(true)
	hadoop.PoisonRecycledChunks.Store(true)
	os.Exit(m.Run())
}
