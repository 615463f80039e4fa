package main

import (
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// beMainEnv makes the test binary behave as m3rbench itself, so the smoke
// tests drive the real main — flags, tables, exit status — without needing
// the go tool at test time.
const beMainEnv = "M3RBENCH_TEST_BE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(beMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes m3rbench with args and returns its combined output.
func run(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), beMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// bench is run for a command line that must exit 0.
func bench(t *testing.T, args ...string) string {
	t.Helper()
	out, err := run(args...)
	if err != nil {
		t.Fatalf("m3rbench %v: %v\n%s", args, err, out)
	}
	return out
}

// submatches returns pattern's submatches in out as integers, failing the
// test when the line is missing.
func submatches(t *testing.T, out, pattern string) []int64 {
	t.Helper()
	m := regexp.MustCompile(pattern).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no line matching %q in:\n%s", pattern, out)
	}
	nums := make([]int64, len(m)-1)
	for i, s := range m[1:] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("%q in a line matching %q: %v", s, pattern, err)
		}
		nums[i] = n
	}
	return nums
}

// TestSmokeAblations pins the two ablation rows that are byte counts, hence
// deterministic: partition stability keeps the sum job's shuffle local, and
// de-duplication shrinks the broadcast. The two timing rows must print.
func TestSmokeAblations(t *testing.T) {
	out := bench(t, "-fig", "ablate", "-quick")
	for _, header := range []string{"== Ablations", "ImmutableOutput (", "Partition stability (", "Cache (", "De-duplication ("} {
		if !strings.Contains(out, header) {
			t.Errorf("missing %q in:\n%s", header, out)
		}
	}
	if b := submatches(t, out, `row partitioner (\d+)  hash partitioner (\d+)`); b[0] >= b[1] {
		t.Errorf("partition stability: row partitioner shipped %d remote bytes, hash partitioner %d; want fewer", b[0], b[1])
	}
	if b := submatches(t, out, `dedup on (\d+) KB  dedup off (\d+) KB`); b[0] >= b[1] {
		t.Errorf("de-duplication: %d KB remote with dedup on, %d KB off; want fewer", b[0], b[1])
	}
}

// TestSmokeFig7 pins the figure's shape: M3R beats Hadoop on every row.
func TestSmokeFig7(t *testing.T) {
	out := bench(t, "-fig", "7", "-quick")
	if !strings.Contains(out, "== Figure 7") {
		t.Fatalf("missing the Figure 7 header in:\n%s", out)
	}
	rows := regexp.MustCompile(`(?m)^(\d+) .* ([0-9.]+)x$`).FindAllStringSubmatch(out, -1)
	if len(rows) != 2 {
		t.Fatalf("want 2 rows under -quick, got %d in:\n%s", len(rows), out)
	}
	for _, r := range rows {
		if x, err := strconv.ParseFloat(r[2], 64); err != nil || x <= 1 {
			t.Errorf("rows=%s: speedup %sx, want > 1", r[1], r[2])
		}
	}
}

// TestStrayArgumentExits2: a positional argument would silently disable
// every flag after it, so it is an error.
func TestStrayArgumentExits2(t *testing.T) {
	out, err := run("bogus", "-fig", "nosuch")
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(out, `"bogus"`) {
		t.Fatalf("want exit 2 naming the argument, got %v:\n%s", err, out)
	}
}
