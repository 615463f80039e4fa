package integration_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/formats"
	"m3r/internal/lab"
	"m3r/internal/microbench"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// readRawParts reads every part file under dir, keyed by file name — the
// byte-identity oracle for comparing one engine's output across the shuffle
// lifecycle grid (same partitioner, same part files, same bytes).
func readRawParts(t *testing.T, fs dfs.FileSystem, dir string) map[string][]byte {
	t.Helper()
	files, err := dfs.ListRecursive(fs, dir)
	if err != nil {
		t.Fatalf("list %s: %v", dir, err)
	}
	out := make(map[string][]byte)
	for _, f := range files {
		base := dfs.Base(f.Path)
		if !strings.HasPrefix(base, "part-") {
			continue
		}
		r, err := fs.Open(f.Path)
		if err != nil {
			t.Fatalf("open %s: %v", f.Path, err)
		}
		b, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			t.Fatalf("read %s: %v", f.Path, err)
		}
		out[base] = b
	}
	return out
}

// assertSameParts compares two raw part-file sets byte for byte.
func assertSameParts(t *testing.T, leg string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d part files vs %d", leg, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: part file %s missing", leg, name)
		}
		if string(g) != string(w) {
			t.Fatalf("%s: part file %s differs (%d vs %d bytes)", leg, name, len(g), len(w))
		}
	}
}

// lifecycleGridLeg is one point of the shuffle-memory-lifecycle grid.
type lifecycleGridLeg struct {
	budget int64  // 0 = unlimited, 4096 = tight, 1 = everything spills
	codec  string // spill block codec; "" = the default, stored blocks
}

func (l lifecycleGridLeg) name() string {
	n := fmt.Sprintf("b%d", l.budget)
	if l.codec != "" {
		n += "_c" + l.codec
	}
	return n
}

func (l lifecycleGridLeg) apply(job *conf.JobConf) *conf.JobConf {
	job.SetInt64(conf.KeyM3RShuffleBudget, l.budget)
	if l.codec != "" {
		job.Set(conf.KeyM3RSpillCodec, l.codec)
	}
	return job
}

// TestShuffleLifecycleEquivalenceWordCount is the end-to-end lifecycle
// harness: WordCount across the full budget × codec grid must produce
// byte-identical output on the M3R engine at every point, agree with the
// Hadoop engine and the reference counts, and honor the counter invariants
// of each regime (no spills without a budget, all-spill at a starvation
// budget, accounting independent of the codec).
// Every budgeted leg also passes the engine's own check at the shuffle
// barrier — per place, the resident segments are no more bytes than the job
// holds in the pool — or its Submit fails here, and leaves the engine's pool
// at zero.
func TestShuffleLifecycleEquivalenceWordCount(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/L", 64<<10, 9); err != nil {
		t.Fatal(err)
	}
	want, err := wordcount.CountReference(c.FS, "/data/L")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Hadoop.Submit(wordcount.NewJob("/data/L", "/out/h", 3, true)); err != nil {
		t.Fatalf("hadoop reference: %v", err)
	}
	hadoopLines := readTextOutput(t, c.FS, "/out/h")
	checkCounts(t, hadoopLines, want)

	var refParts map[string][]byte // first m3r leg pins all the others
	var zeroBudgetSpills int64     // budget=1 spills every run: deterministic
	// Legs that leave the codec unset inherit the conf.DefaultsEnv codec
	// (that inheritance is the point of the compressed-spill CI leg), so
	// the stored-block framing identity only holds when the environment's
	// default really is codec none.
	defaults, err := conf.EnvDefaults()
	if err != nil {
		t.Fatal(err)
	}
	envCodec := defaults.Get(conf.KeyM3RSpillCodec)
	noneDefault := envCodec == "" || envCodec == "none"
	for _, budget := range []int64{0, 4 << 10, 1} {
		// The codec only matters once runs hit disk: unbudgeted legs never
		// spill, so the flate dimension is skipped there.
		codecs := []string{"", "flate"}
		if budget == 0 {
			codecs = []string{""}
		}
		for _, codec := range codecs {
			leg := lifecycleGridLeg{budget: budget, codec: codec}
			out := "/out/" + leg.name()
			rep, err := c.M3R.Submit(leg.apply(wordcount.NewJob("/data/L", out, 3, true)))
			if err != nil {
				t.Fatalf("%s: %v", leg.name(), err)
			}
			if held := c.M3R.ShufflePoolHeldBytes(); held != 0 {
				t.Errorf("%s: pool holds %d bytes after the job", leg.name(), held)
			}

			parts := readRawParts(t, c.FS, out)
			if refParts == nil {
				refParts = parts
				lines := readTextOutput(t, c.FS, out)
				checkCounts(t, lines, want)
				requireSameLines(t, "m3r vs hadoop", hadoopLines, lines)
			} else {
				assertSameParts(t, leg.name(), parts, refParts)
			}

			spilledRuns := rep.Counters.Value(counters.M3RGroup, counters.SpilledRuns)
			spilledBytes := rep.Counters.Value(counters.M3RGroup, counters.SpilledBytes)
			spilledRaw := rep.Counters.Value(counters.M3RGroup, counters.SpilledRawBytes)
			released := rep.Counters.Value(counters.M3RGroup, counters.BudgetReleasedBytes)
			// SPILLED_BYTES counts stored (post-codec) bytes and
			// SPILLED_RAW_BYTES the record-format bytes: on codec none they
			// differ by the framing alone — per run a 6-byte header and per
			// block a codec byte and two uvarint lengths, 3 to 7 bytes while
			// blocks are under 2 MiB, and a run holds one block plus one per
			// 64 KiB it fills — and both are present or both absent always.
			framing := spilledBytes - spilledRaw
			if codec == "" && noneDefault && (framing < 9*spilledRuns || framing > 13*spilledRuns+7*(spilledRaw>>16)) {
				t.Errorf("%s: codec none stored %d bytes for %d raw in %d runs: %d bytes of framing is not the layout's",
					leg.name(), spilledBytes, spilledRaw, spilledRuns, framing)
			}
			if (spilledBytes == 0) != (spilledRaw == 0) {
				t.Errorf("%s: stored=%d raw=%d — counters out of step", leg.name(), spilledBytes, spilledRaw)
			}
			switch budget {
			case 0:
				// Unlimited: the lifecycle machinery must stay cold.
				if spilledRuns != 0 || spilledBytes != 0 || released != 0 {
					t.Errorf("%s: unbudgeted leg touched the spill path (runs=%d bytes=%d released=%d)",
						leg.name(), spilledRuns, spilledBytes, released)
				}
			case 1:
				// Starvation budget: every encodable run spills, and nothing
				// can reserve or release.
				if spilledRuns == 0 || spilledBytes == 0 {
					t.Errorf("%s: starvation budget spilled nothing", leg.name())
				}
				if released != 0 {
					t.Errorf("%s: released=%d under a 1-byte budget", leg.name(), released)
				}
				// Spill accounting must not depend on the codec: at this
				// budget the spill set is deterministic, so the counters are
				// too.
				if zeroBudgetSpills == 0 {
					zeroBudgetSpills = spilledRuns
				} else if spilledRuns != zeroBudgetSpills {
					t.Errorf("%s: SpilledRuns=%d, other starvation legs saw %d", leg.name(), spilledRuns, zeroBudgetSpills)
				}
			default:
				// Tight budget: resident + spilled covers all encodable
				// shuffle bytes.
				if spilledRuns > 0 && spilledBytes == 0 {
					t.Errorf("%s: spilled runs but no spilled bytes", leg.name())
				}
			}
		}
	}
}

// readSeqParts decodes every part file under dir into its ordered,
// serialized record stream, keyed by file name. Sequence files embed a
// random per-file sync marker, so raw bytes cannot be compared across runs
// — the decoded record stream in order is the byte-identity oracle instead.
func readSeqParts(t *testing.T, fs dfs.FileSystem, dir string) map[string][]string {
	t.Helper()
	files, err := dfs.ListRecursive(fs, dir)
	if err != nil {
		t.Fatalf("list %s: %v", dir, err)
	}
	out := make(map[string][]string)
	for _, f := range files {
		base := dfs.Base(f.Path)
		if !strings.HasPrefix(base, "part-") {
			continue
		}
		pairs, err := formats.ReadSeqFileAll(fs, f.Path)
		if err != nil {
			t.Fatalf("read %s: %v", f.Path, err)
		}
		recs := make([]string, 0, len(pairs))
		for _, p := range pairs {
			kb, _ := wio.Marshal(p.Key)
			vb, _ := wio.Marshal(p.Value)
			recs = append(recs, string(kb)+"\x00"+string(vb))
		}
		out[base] = recs
	}
	return out
}

// assertSameSeqParts compares two decoded part-file sets record for record.
func assertSameSeqParts(t *testing.T, leg string, got, want map[string][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d part files vs %d", leg, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: part file %s missing", leg, name)
		}
		if len(g) != len(w) {
			t.Fatalf("%s: part file %s has %d records, want %d", leg, name, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: part file %s record %d differs", leg, name, i)
			}
		}
	}
}

// TestShuffleLifecycleEquivalenceRepartition runs the §6.1.1 repartition
// job — sequence-file I/O, a mod partitioner, identity reduce — through the
// lifecycle grid's corners: the workload whose values are opaque byte blobs
// exercises the spill record path with large records.
func TestShuffleLifecycleEquivalenceRepartition(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	cfg := microbench.Config{
		Pairs: 200, ValueBytes: 512, Percent: 0,
		Iterations: 1, Partitions: 3, Dir: "/mb", Seed: 5,
	}
	if err := microbench.GenerateUnaligned(c.FS, cfg, "/mb/foreign"); err != nil {
		t.Fatal(err)
	}

	var refParts map[string][]string
	legs := []lifecycleGridLeg{
		{budget: 0},
		{budget: 1},
		{budget: 4 << 10},
		{budget: 1, codec: "flate"},
		{budget: 4 << 10, codec: "flate"},
	}
	for _, leg := range legs {
		out := "/mb/out_" + leg.name()
		rep, err := c.M3R.Submit(leg.apply(cfg.RepartitionJob("/mb/foreign", out)))
		if err != nil {
			t.Fatalf("%s: %v", leg.name(), err)
		}
		parts := readSeqParts(t, c.FS, out)
		if refParts == nil {
			refParts = parts
			if len(parts) == 0 {
				t.Fatal("repartition produced no part files")
			}
		} else {
			assertSameSeqParts(t, leg.name(), parts, refParts)
		}
		if leg.budget == 1 {
			if n := rep.Counters.Value(counters.M3RGroup, counters.SpilledRuns); n == 0 {
				t.Errorf("%s: starvation budget spilled nothing", leg.name())
			}
		}
	}

	// Cross-engine: the Hadoop engine agrees pair-for-pair.
	if _, err := c.Hadoop.Submit(cfg.RepartitionJob("/mb/foreign", "/mb/out_h")); err != nil {
		t.Fatalf("hadoop: %v", err)
	}
	h := readAllOutput(t, c.FS, "/mb/out_h", true)
	m := readAllOutput(t, c.FS, "/mb/out_"+legs[0].name(), true)
	if len(h) != len(m) {
		t.Fatalf("hadoop %d keys vs m3r %d", len(h), len(m))
	}
	for k, v := range h {
		if m[k] != v {
			t.Fatalf("key %x differs between engines", k)
		}
	}
}

// TestReleasedBudgetObservedEndToEnd pins the release path at the job
// level: a budget wide enough to keep runs resident must end the job with
// every reserved byte released (BUDGET_RELEASED_BYTES > 0 and no spills) —
// the "SpilledBytes == 0 when budget released fast enough" invariant.
func TestReleasedBudgetObservedEndToEnd(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2, ShuffleBudgetBytes: -1}) // the job's own budget, no carrier pool below it
	if err := wordcount.Generate(c.FS, "/data/R", 32<<10, 3); err != nil {
		t.Fatal(err)
	}
	job := wordcount.NewJob("/data/R", "/out/released", 3, true)
	job.SetInt64(conf.KeyM3RShuffleBudget, 1<<30) // roomy: everything resident
	rep, err := c.M3R.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Counters.Value(counters.M3RGroup, counters.SpilledBytes); n != 0 {
		t.Errorf("SpilledBytes=%d with a roomy budget", n)
	}
	if released := rep.Counters.Value(counters.M3RGroup, counters.BudgetReleasedBytes); released == 0 {
		t.Error("BUDGET_RELEASED_BYTES=0: reduce never handed budget back")
	}
}
