// benchpair runs two builds of the repo's benchmark against each other in
// pairs and says, metric by metric, whether the second is better, worse or
// neither.
//
// Usage:
//
//	go run ./cmd/benchpair -a parent.bin -b change.bin -workload W -pairs 10 -seed S [-seconds N]
//	go run ./cmd/benchpair -parent REV [-change REV] -workload W -pairs 10 -seed S
//
// -parent builds side a from a commit of the local repository, -change side
// b (without it, and without -b, side b is the working tree). A revision is
// unpacked with `git archive` into a temporary directory and built there:
// no network, and nothing is left registered in the repository.
//
// Pair i runs both binaries on seed S+i, a first in even pairs and b first
// in odd ones, so drift in the machine's speed falls on both sides alike.
// Two binaries with the same bytes are refused: their pairs would only
// measure noise. Per metric it prints each side's median [quartiles], the
// pairs in which b is lower, and a verdict:
//
//   - claim: b is lower in at least 9 pairs of 10 and its median is below
//     a's by more than a's interquartile distance; a timing must also be
//     lower in every pair and by at least 10 %.
//   - regress: the same, with b higher (a timing by at least 5 %).
//   - unresolved: anything else. A timing row within ±5 % is never more.
//
// Raw walls (the `raw medians:` line) are the primary timing rows; the
// calibration-corrected walls of the JSON line are printed beside them.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// run is what one benchmark run reported.
type run struct {
	metrics           map[string]float64
	attempted, failed int
}

// parseRun reads a benchmark run's standard output: the metrics of its last
// line, a JSON object, and the raw walls and calibration of its `raw
// medians:` line, as m3r_wall_raw_s, hadoop_wall_raw_s and calib_s.
func parseRun(out []byte) (run, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return run{}, fmt.Errorf("last line is not the result: %w", err)
	}
	r := run{metrics: make(map[string]float64), attempted: res.Attempted, failed: res.Failed}
	for k, v := range res.Metrics {
		r.metrics[k] = v.Value
	}
	for _, l := range lines {
		_, rest, ok := strings.Cut(l, "raw medians:")
		if !ok {
			continue
		}
		var m3r, hadoop, calib float64
		if _, err := fmt.Sscanf(rest, " m3r %g s, hadoop %g s; calibration %g s", &m3r, &hadoop, &calib); err != nil {
			return run{}, fmt.Errorf("raw medians line %q: %w", l, err)
		}
		r.metrics["m3r_wall_raw_s"], r.metrics["hadoop_wall_raw_s"], r.metrics["calib_s"] = m3r, hadoop, calib
	}
	if _, ok := r.metrics["m3r_wall_raw_s"]; !ok {
		return run{}, errors.New("no raw medians line")
	}
	return r, nil
}

// rowOrder puts each raw wall first and its corrected wall beside it; other
// metrics follow in name order.
var rowOrder = []string{
	"m3r_wall_raw_s", "m3r_wall_s", "m3r_wall_p75_s", "m3r_cold_wall_s",
	"hadoop_wall_raw_s", "hadoop_wall_s", "setup_s", "calib_s",
}

// timing reports whether a metric is a time, judged by rule 6's timing
// thresholds; the others (allocations, bytes, heap) are deterministic.
func timing(name string) bool { return strings.HasSuffix(name, "_s") }

// percentile is the p-th percentile of sorted s by linear interpolation
// between closest ranks, as the benchmark computes its medians.
func percentile(s []float64, p float64) float64 {
	rank := p / 100 * float64(len(s)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	return s[lo] + (rank-float64(lo))*(s[hi]-s[lo])
}

// quartiles are the first and third quartiles of sorted s by the exclusive
// method (Python's statistics.quantiles(s, n=4)), the benchmark's spread.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(math.Floor(pos)), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return q(1), q(3)
}

// row is one metric's comparison.
type row struct {
	medA, q1A, q3A       float64
	medB, q1B, q3B       float64
	lower, higher, pairs int
	verdict              string
}

// compare judges b's samples against a's, pair by pair (a[i] and b[i] ran
// on one seed).
func compare(name string, a, b []float64) row {
	r := row{pairs: len(a)}
	for i := range a {
		switch {
		case b[i] < a[i]:
			r.lower++
		case b[i] > a[i]:
			r.higher++
		}
	}
	sa, sb := slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))
	r.medA, r.medB = percentile(sa, 50), percentile(sb, 50)
	r.q1A, r.q3A = quartiles(sa)
	r.q1B, r.q3B = quartiles(sb)
	need := (9*r.pairs + 9) / 10 // nine of ten, rounded up
	iqr, delta := r.q3A-r.q1A, (r.medB-r.medA)/math.Abs(r.medA)
	r.verdict = "unresolved"
	switch {
	case timing(name) && math.Abs(delta) < 0.05:
	case r.lower >= need && r.medA-r.medB > iqr && (!timing(name) || r.lower == r.pairs && delta <= -0.10):
		r.verdict = "claim"
	case r.higher >= need && r.medB-r.medA > iqr:
		r.verdict = "regress"
	}
	return r
}

// pairs runs binaries a and b n times each, pair i on seed seed+i with a
// first when i is even, and returns each side's runs in pair order.
func pairs(a, b string, args []string, n int, seed int64, log io.Writer) (ra, rb []run, err error) {
	for i := range n {
		s := strconv.FormatInt(seed+int64(i), 10)
		order := []*[]run{&ra, &rb}
		bins := []string{a, b}
		if i%2 == 1 {
			slices.Reverse(order)
			slices.Reverse(bins)
		}
		for j, bin := range bins {
			out, err := exec.Command(bin, append(slices.Clone(args), "-seed", s)...).Output()
			if err != nil {
				return nil, nil, fmt.Errorf("%s -seed %s: %w\n%s", bin, s, err, out)
			}
			r, err := parseRun(out)
			if err != nil {
				return nil, nil, fmt.Errorf("%s -seed %s: %w", bin, s, err)
			}
			*order[j] = append(*order[j], r)
		}
		fmt.Fprintf(log, "pair %d/%d (seed %s) done\n", i+1, n, s)
	}
	return ra, rb, nil
}

// report compares every metric both sides measured and prints one row each.
func report(w io.Writer, ra, rb []run) {
	var names []string
	for k := range ra[0].metrics {
		if _, ok := rb[0].metrics[k]; ok {
			names = append(names, k)
		}
	}
	rank := func(name string) int {
		if i := slices.Index(rowOrder, name); i >= 0 {
			return i
		}
		return len(rowOrder)
	}
	slices.SortFunc(names, func(x, y string) int {
		if d := rank(x) - rank(y); d != 0 {
			return d
		}
		return strings.Compare(x, y)
	})
	fmt.Fprintf(w, "%-24s %-30s %-30s %8s %6s  %s\n", "metric", "a median [q1 q3]", "b median [q1 q3]", "delta", "lower", "verdict")
	for _, name := range names {
		var a, b []float64
		for i := range ra {
			a, b = append(a, ra[i].metrics[name]), append(b, rb[i].metrics[name])
		}
		r := compare(name, a, b)
		fmt.Fprintf(w, "%-24s %-30s %-30s %+7.2f%% %3d/%-2d  %s\n", name,
			fmt.Sprintf("%.5g [%.5g %.5g]", r.medA, r.q1A, r.q3A), fmt.Sprintf("%.5g [%.5g %.5g]", r.medB, r.q1B, r.q3B),
			100*(r.medB-r.medA)/math.Abs(r.medA), r.lower, r.pairs, r.verdict)
	}
	for i, rs := range [][]run{ra, rb} {
		att, failed := 0, 0
		for _, r := range rs {
			att, failed = att+r.attempted, failed+r.failed
		}
		if failed > 0 {
			fmt.Fprintf(w, "side %c: %d of %d operations failed\n", 'a'+i, failed, att)
		}
	}
}

// build compiles the benchmark of rev (the working tree when rev is empty)
// into dir and returns the binary's path.
func build(rev, dir, name string) (string, error) {
	bin, src := filepath.Join(dir, name+".bin"), "."
	if rev != "" {
		src = filepath.Join(dir, name+"-src")
		tar := filepath.Join(dir, name+".tar")
		if err := os.Mkdir(src, 0o755); err != nil {
			return "", err
		}
		if out, err := exec.Command("git", "archive", "-o", tar, rev).CombinedOutput(); err != nil {
			return "", fmt.Errorf("git archive %s: %w\n%s", rev, err, out)
		}
		if out, err := exec.Command("tar", "-xf", tar, "-C", src).CombinedOutput(); err != nil {
			return "", fmt.Errorf("unpacking %s: %w\n%s", rev, err, out)
		}
	}
	cmd := exec.Command("go", "build", "-o", bin, "./benchmark")
	cmd.Dir = src
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building %q: %w\n%s", rev, err, out)
	}
	return bin, nil
}

// hashOf is the SHA-256 of a file's bytes.
func hashOf(path string) ([32]byte, error) {
	data, err := os.ReadFile(path)
	return sha256.Sum256(data), err
}

func main() {
	var (
		a        = flag.String("a", "", "the parent's benchmark binary")
		b        = flag.String("b", "", "the change's benchmark binary")
		parent   = flag.String("parent", "", "build side a from this revision instead of -a")
		change   = flag.String("change", "", "build side b from this revision instead of -b (default: the working tree)")
		workload = flag.String("workload", "wordcount", "the benchmark workload")
		n        = flag.Int("pairs", 10, "pairs of runs")
		seed     = flag.Int64("seed", 1, "pair i runs on seed+i")
		seconds  = flag.Float64("seconds", 0, "passed to each run as -seconds when positive")
	)
	flag.Parse()
	if flag.NArg() != 0 || *n < 1 || (*a == "") == (*parent == "") || *b != "" && *change != "" {
		fmt.Fprintln(os.Stderr, "usage: benchpair (-a BIN | -parent REV) [-b BIN | -change REV] -workload W -pairs N -seed S [-seconds N]")
		os.Exit(2)
	}
	if err := mainErr(*a, *b, *parent, *change, *workload, *n, *seed, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func mainErr(a, b, parent, change, workload string, n int, seed int64, seconds float64) error {
	if parent != "" || b == "" {
		dir, err := os.MkdirTemp("", "benchpair-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if parent != "" {
			if a, err = build(parent, dir, "a"); err != nil {
				return err
			}
		}
		if b == "" {
			if b, err = build(change, dir, "b"); err != nil {
				return err
			}
		}
	}
	ha, errA := hashOf(a)
	hb, errB := hashOf(b)
	if err := errors.Join(errA, errB); err != nil {
		return err
	}
	if ha == hb {
		return fmt.Errorf("%s and %s are the same binary", a, b)
	}
	args := []string{"-workload", workload}
	if seconds > 0 {
		args = append(args, "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	}
	ra, rb, err := pairs(a, b, args, n, seed, os.Stderr)
	if err != nil {
		return err
	}
	fmt.Printf("benchpair %s: %d pairs, seeds %d..%d, a first in even pairs\n", workload, n, seed, seed+int64(n)-1)
	report(os.Stdout, ra, rb)
	return nil
}
