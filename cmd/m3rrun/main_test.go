package main

import (
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"testing"

	"m3r/internal/conf"
)

// beMainEnv makes the test binary behave as m3rrun itself, so the smoke
// test drives the real main — flags, -D plumbing, exit status — without
// needing the go tool at test time.
const beMainEnv = "M3RRUN_TEST_BE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(beMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmokeBudgetedWordCount runs a budgeted WordCount end to end through
// the CLI: the -D key must reach the job (runs spill) and the run must exit 0.
func TestSmokeBudgetedWordCount(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-job", "wordcount", "-mb", "1", "-nodes", "2",
		"-D", conf.KeyM3RShuffleBudget+"=4096")
	cmd.Env = append(os.Environ(), beMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("m3rrun: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`SPILLED_RUNS=(\d+)`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no SPILLED_RUNS in the printed counters:\n%s", out)
	}
	if n, _ := strconv.Atoi(string(m[1])); n <= 0 {
		t.Fatalf("SPILLED_RUNS=%d under a 4 KiB budget, want > 0", n)
	}
}
