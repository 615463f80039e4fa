package engine

import (
	"testing"

	"m3r/internal/lint/leakcheck"
)

// TestMain fails the package when staged-merge workers or lifecycle
// watchers outlive the tests (DESIGN.md "Static analysis").
func TestMain(m *testing.M) { leakcheck.Main(m) }
