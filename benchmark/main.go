// Command benchmark is the repository's benchmark: for a named workload
// and seed it builds a 4-place cluster with the zero cost model — so wall
// time is CPU, allocation and real I/O, nothing slept — runs the workload's
// job sequence on the M3R engine and on the Hadoop engine, checks the
// outputs, and prints every metric by name with its unit. README.md in this
// directory has the glossary and the reasons behind the design.
//
//	go run ./benchmark -workload wordcount -seed 1 -seconds 30 -trace 0
//	go run ./benchmark -workload wordcount -trace 1      # per-layer metrics, spans
//	go run ./benchmark -compare before.jsonl after.jsonl
//	go run ./benchmark -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const workRoot = ".bench_work"

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the contract with the driver.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one line of an -append file: the result plus what is needed
// to compare it with another run and to know where it was taken.
type runRecord struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Trace    int                  `json:"trace"`
	Env      envInfo              `json:"env"`
	Unsteady bool                 `json:"unsteady"`
	Failures []string             `json:"failures,omitempty"`
	Samples  map[string][]float64 `json:"samples,omitempty"`
	result
}

func main() {
	var (
		name     = flag.String("workload", "wordcount", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 30, "keep adding rounds of warm samples until the run has measured this long (never fewer than 10 rounds)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run, the ladder and the modelled track")
		spans    = flag.String("spans", "", "where a traced run writes its spans (default "+workRoot+"/spans-<workload>.json)")
		appendTo = flag.String("append", "", "append this run's record, one JSON line, to the file (the input of -compare)")
		smoke    = flag.Bool("smoke", false, "run every workload once at 1/32 size, traced and untraced; timings are meaningless")
		compare  = flag.Bool("compare", false, "compare two -append files given as arguments; exit 1 if any metric is worse")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare a.jsonl b.jsonl")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if vars := m3rEnv(os.Environ()); len(vars) > 0 {
		fatal(2, "refusing to run with %s set: the engines read defaults for pool, codec, queue and attempts from M3R_* variables", strings.Join(vars, ", "))
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *smoke {
		for _, w := range workloads {
			for tr := 0; tr <= 1; tr++ {
				rec, err := runOnce(workRoot, w, *seed, 32, smokeProtocol, 0, tr, "")
				if err != nil {
					fatal(1, "smoke %s: %v", w.name, err)
				}
				if !rec.Correct {
					fatal(1, "smoke %s: %s", w.name, strings.Join(rec.Failures, "; "))
				}
				fmt.Printf("smoke %-14s trace=%d  %d operations ok\n", w.name, tr, rec.Attempted)
			}
		}
		return
	}

	w := findWorkload(*name)
	if w == nil {
		fatal(2, "unknown workload %q (have %s)", *name, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, "-trace must be 0 or 1")
	}
	if *trace == 1 && *spans == "" {
		*spans = filepath.Join(workRoot, "spans-"+w.name+".json")
	}
	budget := time.Duration(*seconds * float64(time.Second))
	rec, err := runOnce(workRoot, w, *seed, 1, fullProtocol, budget, *trace, *spans)
	if err != nil {
		fatal(1, "%v", err)
	}
	printRecord(rec, *spans)
	if *appendTo != "" {
		if err := appendRecord(*appendTo, rec); err != nil {
			fatal(1, "%v", err)
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(line))
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runOnce makes one run of one workload in a private work directory under
// root and turns what it measured into a record.
func runOnce(root string, w *workload, seed int64, scale int, p protocol, budget time.Duration, trace int, spansPath string) (*runRecord, error) {
	workDir, err := newWorkDir(root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	r := &runner{w: w, seed: seed, scale: scale, workDir: workDir, calib: newCalibrator()}
	rec := &runRecord{Workload: w.name, Seed: seed, Trace: trace, Env: readEnv()}
	values := make(map[string]float64)
	table := endToEnd
	if trace == 0 {
		t, err := r.runTimed(p, budget)
		if err != nil {
			return nil, err
		}
		recs := float64(t.mapOutRecs)
		values["setup_s"] = median(t.setup)
		values["m3r_wall_s"] = median(t.m3r)
		values["m3r_wall_p75_s"] = percentile(t.m3r, 75)
		values["m3r_cold_wall_s"] = median(t.cold)
		values["hadoop_wall_s"] = median(t.hadoop)
		values["m3r_alloc_bytes_per_rec"] = float64(t.allocBytes) / recs
		values["m3r_allocs_per_rec"] = float64(t.allocs) / recs
		values["m3r_live_heap_mb"] = t.liveHeapMB
		rec.Samples = map[string][]float64{
			"setup_s": t.setup, "m3r_wall_s": t.m3r, "m3r_cold_wall_s": t.cold, "hadoop_wall_s": t.hadoop,
			"m3r_wall_raw_s": t.m3rRaw, "hadoop_wall_raw_s": t.hadoopRaw, "calib_s": r.calibs,
		}
	} else {
		table = perLayer
		values, err = r.runTraced(p, spansPath)
		if err != nil {
			return nil, err
		}
	}
	rec.Unsteady = iqrShare(r.calibs) > 0.10
	rec.Metrics = make(map[string]metricValue, len(table))
	for _, m := range table {
		v, ok := values[m.key()]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured (%v)", w.name, m.key(), v)
		}
		rec.Metrics[m.key()] = metricValue{Value: v, Unit: m.unit}
	}
	rec.Attempted, rec.Failed, rec.Failures = r.ops.attempted, r.ops.failed, r.ops.failures
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// printRecord prints every metric by name with its unit, in table order.
func printRecord(rec *runRecord, spansPath string) {
	e := rec.Env
	fmt.Printf("workload %s  seed %d  trace %d\n", rec.Workload, rec.Seed, rec.Trace)
	fmt.Printf("env: %s, %d cpus, GOMAXPROCS %d, %s, loadavg %s\n", e.CPUModel, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.LoadAvg)
	table := endToEnd
	if rec.Trace == 1 {
		table = perLayer
	}
	for _, m := range table {
		v := rec.Metrics[m.key()]
		n := ""
		if s, ok := rec.Samples[m.key()]; ok {
			n = fmt.Sprintf("  (n=%d, spread %.1f%%)", len(s), 100*iqrShare(s))
		}
		fmt.Printf("  %-34s %14.6g %s%s\n", m.key(), v.Value, v.Unit, n)
	}
	if rec.Trace == 0 {
		fmt.Printf("  raw medians: m3r %.4f s, hadoop %.4f s; calibration %.4f s (spread %.1f%%, n=%d)\n",
			median(rec.Samples["m3r_wall_raw_s"]), median(rec.Samples["hadoop_wall_raw_s"]),
			median(rec.Samples["calib_s"]), 100*iqrShare(rec.Samples["calib_s"]), len(rec.Samples["calib_s"]))
	} else if spansPath != "" {
		fmt.Printf("  spans written to %s\n", spansPath)
	}
	if rec.Unsteady {
		fmt.Println("  UNSTEADY: the calibration loop's spread exceeds 10 %; the machine was busy")
	}
	fmt.Printf("operations: %d attempted, %d failed\n", rec.Attempted, rec.Failed)
	sort.Strings(rec.Failures)
	for _, f := range rec.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}

func appendRecord(path string, rec *runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
