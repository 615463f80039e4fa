package kvstore_test

import (
	"os"
	"testing"

	"m3r/internal/spill"
)

// TestMain poisons recycled spill blocks, so a record kept past its
// stream's lookbehind reads garbage (spill.Stream).
func TestMain(m *testing.M) {
	spill.PoisonRecycledBlocks.Store(true)
	os.Exit(m.Run())
}
