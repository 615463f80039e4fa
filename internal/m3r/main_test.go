package m3r

import (
	"testing"

	"m3r/internal/lint/leakcheck"
)

// TestMain fails the package when place goroutines or merge workers
// outlive the tests — the static loopcancel/closecheck invariants' runtime
// counterpart (DESIGN.md "Static analysis").
func TestMain(m *testing.M) { leakcheck.Main(m) }
