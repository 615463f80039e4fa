package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/sim"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {75, 3.25}, {100, 4}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v", got)
	}
}

// TestIQRShareMatchesPython pins the spread to what
// statistics.quantiles(xs, n=4) gives: for 1..10 the quartiles are 2.75 and
// 8.25 and the median 5.5.
func TestIQRShareMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{3}); got != 0 {
		t.Errorf("iqrShare of one sample = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := &span{ID: 1, StartNs: 0, EndNs: 100}
	kids := []*span{
		{StartNs: 10, EndNs: 30},
		{StartNs: 20, EndNs: 50},  // overlaps the first
		{StartNs: 70, EndNs: 120}, // runs past the parent
		{StartNs: 25, EndNs: 28},  // inside the first two
	}
	// Covered: [10,50) and [70,100) = 70.
	if got := selfNs(parent, kids); got != 30 {
		t.Errorf("selfNs = %d, want 30", got)
	}
	if got := selfNs(parent, nil); got != 100 {
		t.Errorf("selfNs without children = %d, want 100", got)
	}
}

func TestCorrected(t *testing.T) {
	if got := corrected(2, calibRef, calibRef); !near(got, 2) {
		t.Errorf("a machine at reference speed must not be scaled: %v", got)
	}
	if got, want := corrected(2, 1.5*calibRef, 2.5*calibRef), 2*math.Pow(0.5, calibExp); !near(got, want) {
		t.Errorf("a machine whose loops average twice the reference: got %v, want %v", got, want)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := &runRecord{
		Workload: "wordcount", Seed: 3, Trace: 0, Env: readEnv(),
		Samples: map[string][]float64{"m3r_wall_s": {0.1, 0.2}},
		result: result{
			Correct: true, Attempted: 12, Failed: 0,
			Metrics: map[string]metricValue{"m3r_wall_s": {Value: 0.15000000000000002, Unit: "s"}},
		},
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for i := 0; i < 2; i++ {
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records, wrote 2", len(got))
	}
	a, _ := json.Marshal(rec)
	b, _ := json.Marshal(got[1])
	if !bytes.Equal(a, b) {
		t.Errorf("record changed in the round trip:\n%s\n%s", a, b)
	}
	// The driver's line has exactly four keys.
	line, _ := json.Marshal(rec.result)
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
	}
}

func TestVerdict(t *testing.T) {
	m := metricDef{name: "m3r_wall_s", better: "lower", bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", []float64{1.00, 1.02, 0.98, 1.01}, "ok"},
		{"slower", []float64{1.20, 1.21, 1.19, 1.20}, "worse"},
		{"noisy", []float64{0.7, 1.0, 1.3, 1.6}, "unresolved"},
		{"noisy but every run better", []float64{0.2, 0.4, 0.6, 0.8}, "ok"},
	} {
		if _, got := verdict(m, steady, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	setup := metricDef{name: "setup_s", better: "lower", bound: 0.10}
	if _, got := verdict(setup, steady, []float64{0.7, 1.0, 1.3, 1.6}); got == "unresolved" {
		t.Error("setup_s is exempt from the spread rule")
	}
}

func TestM3REnv(t *testing.T) {
	got := m3rEnv([]string{"PATH=/bin", "M3R_SPILL_CODEC=flate", "HOME=/", "M3R_CACHE_BUDGET_BYTES="})
	if strings.Join(got, ",") != "M3R_SPILL_CODEC,M3R_CACHE_BUDGET_BYTES" {
		t.Errorf("m3rEnv = %v", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go equal, and inside the driver's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, spec.Workloads[i].Name, w.name)
		}
		if n := len(spec.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, n)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.key() || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go has %s %s %s", kind, i, g, m.key(), m.unit, m.better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, g.Name, g.Bound != nil)
			} else if bounded && (*g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25) {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v here", g.Name, *g.Bound, m.bound)
			}
			if len(g.Name) > 64 || len(g.Unit) > 16 {
				t.Errorf("%s: name or unit too long for the driver", g.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics; the driver takes 128", len(spec.PerLayer))
	}
	largest := 0.0
	for _, m := range endToEnd {
		largest = math.Max(largest, m.bound)
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].bound != largest {
		t.Errorf("setup_s must carry the largest bound (%v)", largest)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

// tinyWordCount runs the wordcount workload at 1/32 size once on each
// engine of a fresh cluster and returns the bytes of every output file.
func tinyWordCount(t *testing.T, tr *tracer) map[string][]byte {
	t.Helper()
	w := findWorkload("wordcount")
	c, err := newCluster(t.TempDir(), hdfsBlock, 0, sim.Zero(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	inst, err := w.prepare(c, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, eng := range []engine.Engine{c.hEng, c.mEng} {
		if _, err := inst.rep(eng); err != nil {
			t.Fatal(err)
		}
		files, err := dfs.ListRecursive(c.fs, "/out/"+eng.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if f.IsDir || dfs.Base(f.Path) == formats.SuccessMarker {
				continue
			}
			data, err := dfs.ReadAll(c.fs, f.Path)
			if err != nil {
				t.Fatal(err)
			}
			out[f.Path] = data
		}
	}
	return out
}

// TestTracedFSIsTransparent: the same job through the tracing wrappers
// leaves byte-identical files on both engines, and the wrappers saw it.
func TestTracedFSIsTransparent(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	plain := tinyWordCount(t, nil)
	tr := newTracer()
	tr.on.Store(true)
	traced := tinyWordCount(t, tr)
	if len(plain) == 0 || len(plain) != len(traced) {
		t.Fatalf("%d files without the wrapper, %d with it", len(plain), len(traced))
	}
	for path, want := range plain {
		if !bytes.Equal(traced[path], want) {
			t.Errorf("%s differs under the wrapper", path)
		}
	}
	var jobs, handles int
	var bytesMoved float64
	byID := make(map[int64]*span)
	for _, s := range tr.spans {
		byID[s.ID] = s
	}
	for _, s := range tr.spans {
		switch s.Layer {
		case "hadoop", "m3r":
			jobs++
		case "dfs":
			handles++
			if p := byID[s.Parent]; p == nil || (p.Layer != "hadoop" && p.Layer != "m3r") {
				t.Errorf("file-handle span %d does not nest under a job span", s.ID)
			}
			if s.EndNs < s.StartNs || s.Attrs["busy_ns"] <= 0 {
				t.Errorf("file-handle span %d (%s): %d..%d ns, attrs %v", s.ID, s.Name, s.StartNs, s.EndNs, s.Attrs)
			}
			bytesMoved += s.Attrs["bytes"]
		}
	}
	if jobs != 2 || handles == 0 || bytesMoved <= 0 {
		t.Errorf("saw %d job spans and %d file-handle spans moving %v bytes", jobs, handles, bytesMoved)
	}
}

// TestSmoke runs every workload at 1/32 size, untraced and traced: every
// operation passes, every metric is reported, job spans nest under rep
// spans, and the invariants each workload exists for hold.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	t.Setenv("TMPDIR", os.TempDir())
	root := t.TempDir()
	for _, w := range workloads {
		spans := filepath.Join(root, w.name+".json")
		for trace := 0; trace <= 1; trace++ {
			rec, err := runOnce(root, w, 1, 32, smokeProtocol, 0, trace, spans)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Attempted == 0 {
				t.Fatalf("%s trace=%d: %d of %d operations failed: %v", w.name, trace, rec.Failed, rec.Attempted, rec.Failures)
			}
			if trace == 1 {
				checkLayers(t, w.name, rec)
			}
		}
		data, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		var all []*span
		if err := json.Unmarshal(data, &all); err != nil {
			t.Fatal(err)
		}
		byID := make(map[int64]*span)
		for _, s := range all {
			byID[s.ID] = s
		}
		for _, s := range all {
			if s.Layer == "m3r" || s.Layer == "hadoop" {
				if p := byID[s.Parent]; p == nil || p.Layer != "bench" || p.Trace != s.Trace {
					t.Fatalf("%s: job span %d (%s) does not nest under a rep span", w.name, s.ID, s.Name)
				}
			}
		}
	}
}

func checkLayers(t *testing.T, name string, rec *runRecord) {
	t.Helper()
	v := func(layer, metric string) float64 { return rec.Metrics[layer+"."+metric].Value }
	if v("dfs", "warm_read_bytes") != 0 {
		t.Errorf("%s: warm M3R reps read %v bytes from HDFS", name, v("dfs", "warm_read_bytes"))
	}
	if v("m3r", "cache_hit_ratio") != 1 {
		t.Errorf("%s: warm cache hit ratio %v", name, v("m3r", "cache_hit_ratio"))
	}
	switch name {
	case "wordcount":
		if v("spill", "files") != 0 {
			t.Errorf("wordcount spilled %v files on the default path", v("spill", "files"))
		}
	case "sort_spill":
		if v("spill", "raw_bytes") <= 0 || v("m3r", "evicted_runs") <= 0 {
			t.Errorf("sort_spill: raw spill bytes %v, evicted runs %v", v("spill", "raw_bytes"), v("m3r", "evicted_runs"))
		}
	case "shuffle_remote":
		if v("m3r", "local_pairs") != 0 {
			t.Errorf("shuffle_remote kept %v pairs local", v("m3r", "local_pairs"))
		}
	case "pagerank_iter":
		if v("m3r", "cloned_pairs") <= 0 {
			t.Error("pagerank_iter cloned no pairs")
		}
	}
}
