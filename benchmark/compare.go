package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// readRecords reads an -append file: one run per line.
func readRecords(path string) ([]*runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec := new(runRecord)
		if err := json.Unmarshal(sc.Bytes(), rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// valuesOf collects one metric of one workload's untraced runs.
func valuesOf(recs []*runRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload == workload && r.Trace == 0 {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// verdict applies the regression rule to one end-to-end metric: b is worse
// when its median is worse than a's by more than the bound. Where the
// run-to-run spread is wider than the bound the medians cannot settle it,
// and the metric is unresolved unless every run of b reads better than
// every run of a. The driver exempts setup_s from the spread rule, and so
// does this.
func verdict(m metricDef, a, b []float64) (delta float64, v string) {
	ma, mb := median(a), median(b)
	delta = (mb - ma) / ma
	if m.better == "higher" {
		delta = -delta
	}
	if spread := max(iqrShare(a), iqrShare(b)); spread > m.bound && m.name != "setup_s" {
		if m.better == "lower" && slices.Max(b) < slices.Min(a) || m.better == "higher" && slices.Min(b) > slices.Max(a) {
			return delta, "ok"
		}
		return delta, "unresolved"
	}
	if delta > m.bound {
		return delta, "worse"
	}
	return delta, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change, the bound and the verdict, and reports whether any metric
// is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	worse := false
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := valuesOf(a, wl.name, m.name), valuesOf(b, wl.name, m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			delta, v := verdict(m, va, vb)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-15s %-24s a %12.6g (n=%d, spread %4.1f%%)  b %12.6g (n=%d, spread %4.1f%%)  %+6.1f%%  bound %2.0f%%  %s\n",
				wl.name, m.name, median(va), len(va), 100*iqrShare(va), median(vb), len(vb), 100*iqrShare(vb),
				100*delta, 100*m.bound, v)
		}
	}
	return worse, nil
}
