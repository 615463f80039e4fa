package engine

import (
	"testing"

	"m3r/internal/lint/leakcheck"
	"m3r/internal/spill"
)

// TestMain poisons recycled spill blocks, so a record kept past its
// stream's lookbehind reads garbage (spill.Stream), and fails the package
// when a staged merge kernel's worker or a deadline's kill outlives the
// tests (DESIGN.md "Static analysis").
func TestMain(m *testing.M) {
	spill.PoisonRecycledBlocks.Store(true)
	leakcheck.Main(m)
}
