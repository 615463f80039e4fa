package engine

import (
	"testing"

	"m3r/internal/lint/leakcheck"
)

// TestMain fails the package when a staged merge kernel's worker or a
// deadline's kill outlives the tests (DESIGN.md "Static analysis").
func TestMain(m *testing.M) { leakcheck.Main(m) }
