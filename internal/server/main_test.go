package server

import (
	"testing"

	"m3r/internal/lint/leakcheck"
)

// TestMain fails the package when accept loops or session goroutines
// outlive the tests (DESIGN.md "Static analysis").
func TestMain(m *testing.M) { leakcheck.Main(m) }
