package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
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
// the CLI: the -D key must reach the job (runs spill), the report's phase
// table must list the commit phase and the run must exit 0.
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
	// The report's phase table: the tasks' and the job's commits.
	m = regexp.MustCompile(`(?m)^  phase commit +(\d+) spans +[0-9.]+ ms  window +[0-9.]+% of wall$`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no commit row in the printed phase table:\n%s", out)
	}
	if n, _ := strconv.Atoi(string(m[1])); n <= 0 {
		t.Fatalf("%d commit spans, want > 0", n)
	}
}

// TestBadCommandLinesExit2: a stray positional argument would silently
// disable every flag after it (flag stops at the first non-flag) and run the
// default WordCount; m3rrun has no subcommands and no transport flag, so
// `worker` and `-transport` are errors like any other unknown word.
func TestBadCommandLinesExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // on stderr
	}{
		{[]string{"bogus", "-job", "nosuch"}, `unexpected argument "bogus"`},
		{[]string{"worker", "-coordinator", "127.0.0.1:1"}, `unexpected argument "worker"`},
		{[]string{"-transport", "tcp"}, "flag provided but not defined: -transport"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), beMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), tc.want) {
			t.Errorf("m3rrun %v: want exit 2 with %q, got %v:\n%s", tc.args, tc.want, err, out)
		}
	}
}

// TestProfileFlags: -cpuprofile and -memprofile each leave a non-empty file
// after a WordCount run, and a path that cannot be created is a usage error
// before any work is done.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	cmd := exec.Command(os.Args[0], "-job", "wordcount", "-mb", "1", "-nodes", "2",
		"-cpuprofile", cpu, "-memprofile", mem)
	cmd.Env = append(os.Environ(), beMainEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("m3rrun: %v\n%s", err, out)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil {
			t.Error(err)
		} else if st.Size() == 0 {
			t.Errorf("%s is empty after the run", filepath.Base(path))
		}
	}
	for _, flagName := range []string{"-cpuprofile", "-memprofile"} {
		cmd := exec.Command(os.Args[0], "-job", "wordcount", flagName, filepath.Join(dir, "no-such-dir", "p.prof"))
		cmd.Env = append(os.Environ(), beMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "Usage of") ||
			strings.Contains(string(out), "MAP_OUTPUT_RECORDS") {
			t.Errorf("m3rrun %s <unwritable>: want exit 2 with the usage and no job run, got %v:\n%s", flagName, err, out)
		}
	}
}
