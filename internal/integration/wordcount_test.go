package integration_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/lab"
	"m3r/internal/wordcount"
)

// TestWordCountBothEngines runs the same unmodified WordCount job on the
// Hadoop engine and on M3R and checks both against a direct count.
func TestWordCountBothEngines(t *testing.T) {
	for _, immutable := range []bool{false, true} {
		name := "mutating"
		if immutable {
			name = "immutable"
		}
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, lab.Options{Nodes: 3})
			if err := wordcount.Generate(c.FS, "/data/text", 200<<10, 42); err != nil {
				t.Fatalf("generate: %v", err)
			}
			want, err := wordcount.CountReference(c.FS, "/data/text")
			if err != nil {
				t.Fatalf("reference: %v", err)
			}

			hJob := wordcount.NewJob("/data/text", "/out/hadoop", 4, immutable)
			if _, err := c.Hadoop.Submit(hJob); err != nil {
				t.Fatalf("hadoop submit: %v", err)
			}
			mJob := wordcount.NewJob("/data/text", "/out/m3r", 4, immutable)
			rep, err := c.M3R.Submit(mJob)
			if err != nil {
				t.Fatalf("m3r submit: %v", err)
			}

			hLines := readTextOutput(t, c.FS, "/out/hadoop")
			mLines := readTextOutput(t, c.FS, "/out/m3r")
			if len(hLines) != len(mLines) {
				t.Fatalf("engines disagree: hadoop %d lines, m3r %d lines", len(hLines), len(mLines))
			}
			for i := range hLines {
				if hLines[i] != mLines[i] {
					t.Fatalf("line %d differs: hadoop %q vs m3r %q", i, hLines[i], mLines[i])
				}
			}
			checkCounts(t, hLines, want)

			// The ImmutableOutput variant must not clone on M3R; the
			// mutating variant must (§4.1).
			cloned := rep.Counters.Value(counters.M3RGroup, counters.ClonedPairs)
			aliased := rep.Counters.Value(counters.M3RGroup, counters.AliasedPairs)
			if immutable && cloned > 0 {
				t.Errorf("immutable wordcount cloned %d pairs on m3r", cloned)
			}
			if !immutable && cloned == 0 {
				t.Errorf("mutating wordcount cloned no pairs on m3r (aliased=%d)", aliased)
			}
		})
	}
}

// checkCounts verifies "word\tcount" lines against the reference map.
func checkCounts(t *testing.T, lines []string, want map[string]int32) {
	t.Helper()
	got := make(map[string]int32, len(lines))
	for _, l := range lines {
		parts := strings.SplitN(l, "\t", 2)
		if len(parts) != 2 {
			t.Fatalf("malformed output line %q", l)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			t.Fatalf("malformed count in %q", l)
		}
		got[parts[0]] += int32(n)
	}
	if len(got) != len(want) {
		t.Fatalf("distinct words: got %d, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Fatalf("count for %q: got %d, want %d", w, got[w], n)
		}
	}
}

// TestWordCountCounters sanity-checks the system counters both engines
// maintain (§5.3).
func TestWordCountCounters(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/text", 64<<10, 7); err != nil {
		t.Fatalf("generate: %v", err)
	}
	hRep, err := c.Hadoop.Submit(wordcount.NewJob("/data/text", "/out/h", 2, false))
	if err != nil {
		t.Fatalf("hadoop: %v", err)
	}
	mRep, err := c.M3R.Submit(wordcount.NewJob("/data/text", "/out/m", 2, false))
	if err != nil {
		t.Fatalf("m3r: %v", err)
	}
	for _, rep := range []*engine.Report{hRep, mRep} {
		in := rep.Counters.Value(counters.TaskGroup, counters.MapInputRecords)
		out := rep.Counters.Value(counters.TaskGroup, counters.MapOutputRecords)
		red := rep.Counters.Value(counters.TaskGroup, counters.ReduceOutputRecords)
		if in == 0 || out == 0 || red == 0 {
			t.Errorf("%s: zero system counters: in=%d out=%d reduceOut=%d", rep.Engine, in, out, red)
		}
		if out < in {
			t.Errorf("%s: map output %d < input %d for wordcount", rep.Engine, out, in)
		}
		fmt.Printf("%s counters ok (in=%d out=%d)\n", rep.Engine, in, out)
	}
}
