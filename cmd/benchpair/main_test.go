package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cannedRun is a benchmark run's standard output, as `go run ./benchmark
// -workload pagerank_iter -seed 5 -seconds 2` printed it.
const cannedRun = `workload pagerank_iter  seed 5  trace 0
env: Intel(R) Xeon(R) Processor, 2 cpus, GOMAXPROCS 2, go1.24.0, loadavg 0.49 0.34 0.18
  setup_s                                 0.0379574 s  (n=12, spread 8.2%)
  m3r_wall_s                             0.00449036 s  (n=40, spread 21.8%)
  m3r_wall_p75_s                         0.00516853 s
  m3r_cold_wall_s                        0.00491651 s  (n=12, spread 10.2%)
  hadoop_wall_s                           0.0155044 s  (n=10, spread 9.2%)
  m3r_alloc_bytes_per_rec                   2672.19 bytes/rec
  m3r_allocs_per_rec                        5.62483 allocs/rec
  m3r_live_heap_mb                          10.3242 MB
  raw medians: m3r 0.0068 s, hadoop 0.0235 s; calibration 0.0176 s (spread 4.1%, n=118)
operations: 1254 attempted, 0 failed
{"correct":true,"attempted":1254,"failed":0,"metrics":{"hadoop_wall_s":{"value":0.015504441103722394,"unit":"s"},"m3r_alloc_bytes_per_rec":{"value":2672.1934,"unit":"bytes/rec"},"m3r_allocs_per_rec":{"value":5.624825,"unit":"allocs/rec"},"m3r_cold_wall_s":{"value":0.004916505447863773,"unit":"s"},"m3r_live_heap_mb":{"value":10.324249267578125,"unit":"MB"},"m3r_wall_p75_s":{"value":0.005168531314566596,"unit":"s"},"m3r_wall_s":{"value":0.0044903559325308855,"unit":"s"},"setup_s":{"value":0.037957387674311796,"unit":"s"}}}
`

func TestParseRun(t *testing.T) {
	r, err := parseRun([]byte(cannedRun))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"m3r_allocs_per_rec": 5.624825, "m3r_wall_s": 0.0044903559325308855, "setup_s": 0.037957387674311796,
		"m3r_wall_raw_s": 0.0068, "hadoop_wall_raw_s": 0.0235, "calib_s": 0.0176,
	}
	for k, v := range want {
		if r.metrics[k] != v {
			t.Errorf("%s = %v, want %v", k, r.metrics[k], v)
		}
	}
	if len(r.metrics) != 11 || r.attempted != 1254 || r.failed != 0 {
		t.Errorf("%d metrics, %d attempted, %d failed; want 11, 1254, 0", len(r.metrics), r.attempted, r.failed)
	}
	noRaw := strings.Replace(cannedRun, "raw medians", "raw", 1)
	if _, err := parseRun([]byte(noRaw)); err == nil {
		t.Error("a run without its raw medians line parsed")
	}
	if _, err := parseRun([]byte(cannedRun + "panic: boom\n")); err == nil {
		t.Error("a run whose last line is not the result parsed")
	}
}

// TestQuartiles holds the copy of the benchmark's statistics to the values
// Python's statistics.quantiles(xs, n=4) gives.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 7}, 2, 5, 8}, // two samples extrapolate, as Python does
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q3 := quartiles(tc.xs)
		if med := percentile(tc.xs, 50); q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("%v: quartiles %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	ten := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i%3)
		}
		return xs
	}
	with := func(xs []float64, i int, v float64) []float64 {
		xs = append([]float64(nil), xs...)
		xs[i] = v
		return xs
	}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		// Deterministic: 9 of 10 lower and clear of the spread is a claim.
		{"m3r_allocs_per_rec", ten(5.61, 0.001), with(ten(5.10, 0.001), 3, 6), "claim"},
		{"m3r_allocs_per_rec", ten(5.61, 0.001), with(with(ten(5.10, 0.001), 3, 6), 4, 6), "unresolved"},
		{"m3r_allocs_per_rec", ten(5.61, 0.2), ten(5.55, 0.2), "unresolved"}, // inside a's spread
		{"m3r_alloc_bytes_per_rec", ten(2690, 1), ten(2730, 1), "regress"},
		// Timing: under 5 % is unresolved however consistent.
		{"m3r_wall_raw_s", ten(1, 0.001), ten(0.96, 0.001), "unresolved"},
		// 10 % lower in 9 of 10 is not enough for a timing.
		{"m3r_wall_raw_s", ten(1, 0.001), with(ten(0.8, 0.001), 0, 2), "unresolved"},
		{"m3r_wall_raw_s", ten(1, 0.001), ten(0.8, 0.001), "claim"},
		{"m3r_wall_raw_s", ten(1, 0.001), ten(0.93, 0.001), "unresolved"},
		{"hadoop_wall_s", ten(1, 0.001), ten(1.06, 0.001), "regress"},
	} {
		if got := compare(tc.name, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}

// stub writes a benchmark stand-in that logs its name and arguments to log
// and reports allocs/rec of allocs followed by its seed's digits, a fixed
// wall and raw walls.
func stub(t *testing.T, dir, name, allocs, log string) string {
	t.Helper()
	script := `#!/bin/sh
echo "` + name + ` $*" >> ` + log + `
while [ $# -gt 0 ]; do [ "$1" = -seed ] && seed=$2; shift; done
echo "  raw medians: m3r 0.0068 s, hadoop 0.0235 s; calibration 0.0176 s (spread 4.1%, n=118)"
echo '{"correct":true,"attempted":3,"failed":0,"metrics":{"m3r_allocs_per_rec":{"value":` + allocs + `'$seed',"unit":"allocs/rec"},"m3r_wall_s":{"value":0.004,"unit":"s"}}}'
`
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPairsAlternate runs two stub binaries: each pair runs both on its own
// seed, the first binary alternating, and the report reads the claim.
func TestPairsAlternate(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "log")
	a, b := stub(t, dir, "a", "5.6", log), stub(t, dir, "b", "5.1", log)
	ra, rb, err := pairs(a, b, []string{"-workload", "pagerank_iter"}, 4, 20, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(log)
	want := `a -workload pagerank_iter -seed 20
b -workload pagerank_iter -seed 20
b -workload pagerank_iter -seed 21
a -workload pagerank_iter -seed 21
a -workload pagerank_iter -seed 22
b -workload pagerank_iter -seed 22
b -workload pagerank_iter -seed 23
a -workload pagerank_iter -seed 23
`
	if string(got) != want {
		t.Fatalf("runs:\n%s\nwant:\n%s", got, want)
	}
	if v := ra[1].metrics["m3r_allocs_per_rec"]; math.Abs(v-5.621) > 1e-9 {
		t.Errorf("a's pair 1 read %v, want 5.621", v)
	}
	var out bytes.Buffer
	report(&out, ra, rb)
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] == "metric" {
			continue
		}
		want := map[string]string{"m3r_allocs_per_rec": "claim"}[f[0]]
		if want == "" {
			want = "unresolved"
		}
		if f[len(f)-1] != want {
			t.Errorf("row %q, want verdict %s", line, want)
		}
	}
	if !strings.Contains(out.String(), "m3r_wall_raw_s") {
		t.Errorf("no raw wall row:\n%s", out.String())
	}
}

func TestIdenticalBinariesRefused(t *testing.T) {
	dir := t.TempDir()
	a := stub(t, dir, "a", "5.6", filepath.Join(dir, "log"))
	b := filepath.Join(dir, "copy")
	data, _ := os.ReadFile(a)
	if err := os.WriteFile(b, data, 0o755); err != nil {
		t.Fatal(err)
	}
	err := mainErr(a, b, "", "", "wordcount", 1, 1, 0)
	if err == nil || !strings.Contains(err.Error(), "same binary") {
		t.Fatalf("two copies of one binary: %v, want refused", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "log")); !os.IsNotExist(err) {
		t.Error("a refused pair ran a binary")
	}
}
