package integration_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/lab"
	"m3r/internal/mapred"
	"m3r/internal/mapreduce"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// ---- test components (registered once per test binary) ----

// newStyleTokenizer is a new-style (mapreduce API) wordcount mapper.
type newStyleTokenizer struct{ mapreduce.MapperBase }

func (*newStyleTokenizer) AssertImmutableOutput() {}

func (*newStyleTokenizer) Map(_, value wio.Writable, ctx mapreduce.MapContext) error {
	for _, tok := range strings.Fields(value.(*types.Text).String()) {
		if err := ctx.Write(types.NewText(tok), types.NewInt(1)); err != nil {
			return err
		}
	}
	return nil
}

// newStyleSum is a new-style summing reducer.
type newStyleSum struct{ mapreduce.ReducerBase }

func (*newStyleSum) AssertImmutableOutput() {}

func (*newStyleSum) Reduce(key wio.Writable, values mapreduce.Values, ctx mapreduce.ReduceContext) error {
	var sum int32
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		sum += v.(*types.IntWritable).Get()
	}
	return ctx.Write(key, types.NewInt(sum))
}

// flakyMapper fails its first flakyFailures attempts process-wide, then
// behaves as an identity mapper. It drives the resilience contrast test.
type flakyMapper struct{ mapred.Base }

var flakyRemaining atomic.Int32

func (*flakyMapper) Map(key, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	if flakyRemaining.Add(-1) >= 0 {
		panic("injected task failure")
	}
	return out.Collect(key, value)
}

// upperMapper emits each line uppercased, a trivial map-only transform.
type upperMapper struct{ mapred.Base }

func (*upperMapper) AssertImmutableOutput() {}

func (*upperMapper) Map(key, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	return out.Collect(key, types.NewText(strings.ToUpper(value.(*types.Text).String())))
}

// descComparator sorts Text keys in reverse order.
type descComparator struct{}

func (descComparator) Compare(a, b wio.Writable) int { return -a.(*types.Text).CompareTo(b) }

// firstCharGrouper groups Text keys by first byte.
type firstCharGrouper struct{}

func (firstCharGrouper) Compare(a, b wio.Writable) int {
	ab, bb := a.(*types.Text).B, b.(*types.Text).B
	var ac, bc byte
	if len(ab) > 0 {
		ac = ab[0]
	}
	if len(bb) > 0 {
		bc = bb[0]
	}
	return int(ac) - int(bc)
}

// concatReducer emits key plus the count of values in its group, to make
// grouping visible in output.
type concatReducer struct{ mapred.Base }

func (*concatReducer) AssertImmutableOutput() {}

func (*concatReducer) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	n := int32(0)
	for {
		if _, ok := values.Next(); !ok {
			break
		}
		n++
	}
	return out.Collect(key, types.NewInt(n))
}

// sideWriter exercises MultipleOutputs: words also written to a named
// side output.
type sideWriter struct {
	mapred.Base
	mo *mapred.MultipleOutputs
}

func (s *sideWriter) Configure(job *conf.JobConf) {
	suffix := fmt.Sprintf("-r-%05d", job.GetInt(conf.KeyTaskPartition, 0))
	s.mo = mapred.NewMultipleOutputs(job, suffix)
}

func (s *sideWriter) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	n := int32(0)
	for {
		if _, ok := values.Next(); !ok {
			break
		}
		n++
	}
	side, err := s.mo.Collector("side")
	if err != nil {
		return err
	}
	if err := side.Collect(key, types.NewInt(n)); err != nil {
		return err
	}
	return out.Collect(key, types.NewInt(n))
}

func (s *sideWriter) Close() error { return s.mo.Close() }

func init() {
	mapreduce.RegisterMapper("test.NewStyleTokenizer", func() mapreduce.Mapper { return &newStyleTokenizer{} })
	mapreduce.RegisterReducer("test.NewStyleSum", func() mapreduce.Reducer { return &newStyleSum{} })
	mapred.RegisterMapper("test.FlakyMapper", func() mapred.Mapper { return &flakyMapper{} })
	mapred.RegisterMapper("test.UpperMapper", func() mapred.Mapper { return &upperMapper{} })
	mapred.RegisterComparator("test.DescComparator", func() wio.Comparator { return descComparator{} })
	mapred.RegisterComparator("test.FirstCharGrouper", func() wio.Comparator { return firstCharGrouper{} })
	mapred.RegisterReducer("test.ConcatReducer", func() mapred.Reducer { return &concatReducer{} })
	mapred.RegisterReducer("test.SideWriter", func() mapred.Reducer { return &sideWriter{} })
}

// ---- tests ----

// TestNewStyleAPIBothEngines runs a fully new-style (mapreduce API) job.
func TestNewStyleAPIBothEngines(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	dfs.WriteFile(c.FS, "/in/f", []byte("a b a\nc a b\n"))
	for _, eng := range []engine.Engine{c.Hadoop, c.M3R} {
		job := conf.NewJob()
		job.SetJobName("newstyle")
		job.AddInputPath("/in")
		job.SetOutputPath("/out/new-" + eng.Name())
		job.Set(conf.KeyNewMapperClass, "test.NewStyleTokenizer")
		job.Set(conf.KeyNewReducerClass, "test.NewStyleSum")
		job.SetNumReduceTasks(2)
		job.SetMapOutputKeyClass(types.TextName)
		job.SetMapOutputValueClass(types.IntName)
		job.SetOutputKeyClass(types.TextName)
		job.SetOutputValueClass(types.IntName)
		if _, err := eng.Submit(job); err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		lines := readTextOutput(t, c.FS, "/out/new-"+eng.Name())
		want := []string{"a\t3", "b\t2", "c\t1"}
		if len(lines) != 3 {
			t.Fatalf("%s: lines %v", eng.Name(), lines)
		}
		for i := range want {
			if lines[i] != want[i] {
				t.Errorf("%s: line %d: %q want %q", eng.Name(), i, lines[i], want[i])
			}
		}
	}
}

// TestMixedAPIs: old-style mapper with new-style reducer (and vice versa),
// the "any combination" support of §5.3.
func TestMixedAPIs(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	dfs.WriteFile(c.FS, "/in/f", []byte("x y x\n"))
	// Old mapper + new reducer.
	job := conf.NewJob()
	job.AddInputPath("/in")
	job.SetOutputPath("/out/mixed1")
	job.SetMapperClass("examples.WordCount$ImmutableMap")
	job.Set(conf.KeyNewReducerClass, "test.NewStyleSum")
	job.SetNumReduceTasks(1)
	job.SetMapOutputKeyClass(types.TextName)
	job.SetMapOutputValueClass(types.IntName)
	job.SetOutputKeyClass(types.TextName)
	job.SetOutputValueClass(types.IntName)
	if _, err := c.M3R.Submit(job); err != nil {
		t.Fatalf("old map/new reduce: %v", err)
	}
	lines := readTextOutput(t, c.FS, "/out/mixed1")
	if len(lines) != 2 || lines[0] != "x\t2" || lines[1] != "y\t1" {
		t.Errorf("mixed output: %v", lines)
	}
	// New mapper + old reducer.
	job2 := conf.NewJob()
	job2.AddInputPath("/in")
	job2.SetOutputPath("/out/mixed2")
	job2.Set(conf.KeyNewMapperClass, "test.NewStyleTokenizer")
	job2.SetReducerClass("examples.WordCount$Reduce")
	job2.SetNumReduceTasks(1)
	job2.SetMapOutputKeyClass(types.TextName)
	job2.SetMapOutputValueClass(types.IntName)
	job2.SetOutputKeyClass(types.TextName)
	job2.SetOutputValueClass(types.IntName)
	if _, err := c.Hadoop.Submit(job2); err != nil {
		t.Fatalf("new map/old reduce: %v", err)
	}
	lines = readTextOutput(t, c.FS, "/out/mixed2")
	if len(lines) != 2 || lines[0] != "x\t2" {
		t.Errorf("mixed2 output: %v", lines)
	}
}

// TestMapOnlyJobBothEngines: zero reducers send map output straight to the
// output format (§5.3).
func TestMapOnlyJobBothEngines(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	dfs.WriteFile(c.FS, "/in/f", []byte("hello\nworld\n"))
	for _, eng := range []engine.Engine{c.Hadoop, c.M3R} {
		job := conf.NewJob()
		job.SetJobName("maponly")
		job.AddInputPath("/in")
		job.SetOutputPath("/out/mo-" + eng.Name())
		job.SetMapperClass("test.UpperMapper")
		job.SetNumReduceTasks(0)
		job.SetOutputKeyClass(types.LongName)
		job.SetOutputValueClass(types.TextName)
		rep, err := eng.Submit(job)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		lines := readTextOutput(t, c.FS, "/out/mo-"+eng.Name())
		joined := strings.Join(lines, "|")
		if !strings.Contains(joined, "HELLO") || !strings.Contains(joined, "WORLD") {
			t.Errorf("%s: output %v", eng.Name(), lines)
		}
		if rep.Counters.Value(counters.JobGroup, counters.TotalLaunchedReduces) != 0 {
			t.Errorf("%s: launched reducers in a map-only job", eng.Name())
		}
	}
}

// TestCustomComparators: descending sort comparator and first-character
// grouping comparator, on both engines.
func TestCustomComparators(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	dfs.WriteFile(c.FS, "/in/f", []byte("apple\navocado\nbanana\ncherry\ncoconut\n"))
	for _, eng := range []engine.Engine{c.Hadoop, c.M3R} {
		job := conf.NewJob()
		job.AddInputPath("/in")
		job.SetOutputPath("/out/cmp-" + eng.Name())
		job.SetMapperClass(mapred.InverseMapperName) // (offset, line) -> (line, offset)
		job.SetReducerClass("test.ConcatReducer")
		job.SetNumReduceTasks(1)
		job.Set(conf.KeySortComparatorClass, "test.DescComparator")
		job.Set(conf.KeyGroupingComparatorClass, "test.FirstCharGrouper")
		job.SetMapOutputKeyClass(types.TextName)
		job.SetMapOutputValueClass(types.LongName)
		job.SetOutputKeyClass(types.TextName)
		job.SetOutputValueClass(types.IntName)
		if _, err := eng.Submit(job); err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		// Descending sort puts 'c...' first; grouping by first letter
		// yields groups c(2), b(1), a(2). The representative key is the
		// first of each group in sort order.
		lines := readTextOutput(t, c.FS, "/out/cmp-"+eng.Name())
		if len(lines) != 3 {
			t.Fatalf("%s: groups %v", eng.Name(), lines)
		}
		got := strings.Join(lines, "|")
		if !strings.Contains(got, "\t2") || !strings.Contains(got, "\t1") {
			t.Errorf("%s: group sizes wrong: %v", eng.Name(), lines)
		}
	}
}

// TestFailureSemantics is the resilience design-point contrast (§1): the
// Hadoop engine retries failed task attempts and completes; the M3R engine
// fails the whole job on the first task failure.
func TestFailureSemantics(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	dfs.WriteFile(c.FS, "/in/f", []byte("some input line\n"))

	newJob := func(out string) *conf.JobConf {
		job := conf.NewJob()
		job.AddInputPath("/in")
		job.SetOutputPath(out)
		job.SetMapperClass("test.FlakyMapper")
		job.SetReducerClass(mapred.IdentityReducerName)
		job.SetNumReduceTasks(1)
		job.SetInt(conf.KeyMaxMapAttempts, 3)
		job.SetMapOutputKeyClass(types.LongName)
		job.SetMapOutputValueClass(types.TextName)
		job.SetOutputKeyClass(types.LongName)
		job.SetOutputValueClass(types.TextName)
		return job
	}

	// Hadoop: one injected failure, retry succeeds.
	flakyRemaining.Store(1)
	if _, err := c.Hadoop.Submit(newJob("/out/flaky-h")); err != nil {
		t.Errorf("hadoop should survive one task failure: %v", err)
	}

	// M3R: no resilience — the job fails.
	flakyRemaining.Store(1)
	if _, err := c.M3R.Submit(newJob("/out/flaky-m")); err == nil {
		t.Error("m3r must fail the job on task failure (no resilience)")
	}

	// Hadoop: failures exceeding max attempts fail the job.
	flakyRemaining.Store(100)
	if _, err := c.Hadoop.Submit(newJob("/out/flaky-h2")); err == nil {
		t.Error("hadoop must fail after exhausting attempts")
	}
	flakyRemaining.Store(-1)
}

// TestMultipleOutputs: a reducer writing a named side output, kept
// cache-coherent under M3R (§4.2.2).
func TestMultipleOutputs(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	dfs.WriteFile(c.FS, "/in/f", []byte("k k j\n"))
	job := conf.NewJob()
	job.AddInputPath("/in")
	job.SetOutputPath("/out/mo")
	job.SetMapperClass("examples.WordCount$ImmutableMap")
	job.SetReducerClass("test.SideWriter")
	job.SetNumReduceTasks(2)
	job.SetMapOutputKeyClass(types.TextName)
	job.SetMapOutputValueClass(types.IntName)
	job.SetOutputKeyClass(types.TextName)
	job.SetOutputValueClass(types.IntName)
	mapred.AddNamedOutput(job, "side", formats.SequenceFileOutputFormatName, types.TextName, types.IntName)

	if _, err := c.M3R.Submit(job); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// The main output exists.
	lines := readTextOutput(t, c.FS, "/out/mo")
	if len(lines) != 2 {
		t.Fatalf("main output: %v", lines)
	}
	// The named output was written as a SequenceFile and entered the
	// cache.
	files, err := dfs.ListRecursive(c.FS, "/out/mo")
	if err != nil {
		t.Fatal(err)
	}
	var sidePaths []string
	var sidePairs int
	for _, f := range files {
		if strings.HasPrefix(dfs.Base(f.Path), "side-") {
			sidePaths = append(sidePaths, f.Path)
		}
	}
	if len(sidePaths) == 0 {
		t.Fatalf("no side output among %+v", files)
	}
	for _, sidePath := range sidePaths {
		pairs, err := formats.ReadSeqFileAll(c.FS, sidePath)
		if err != nil {
			t.Fatalf("side pairs %s: %v", sidePath, err)
		}
		sidePairs += len(pairs)
		if _, ok, err := c.M3R.CachingFS().GetCacheRecordReader(sidePath); err != nil || !ok {
			t.Errorf("side output %s not cached", sidePath)
		}
		// The cached entry's blocks are homed at the place that ran the
		// writing reduce task (side-r-NNNNN ← partition NNNNN), not
		// hardcoded to place 0 — block homing for side files matches main
		// output.
		var part int
		if _, err := fmt.Sscanf(dfs.Base(sidePath), "side-r-%d", &part); err != nil {
			t.Fatalf("side file name %s: %v", sidePath, err)
		}
		info, ok := c.M3R.Cache().Store().GetInfo(sidePath)
		if !ok || len(info.Blocks) == 0 {
			t.Fatalf("no cache entry for %s", sidePath)
		}
		for _, b := range info.Blocks {
			if want := c.M3R.PlaceOfPartition(part); b.Place != want {
				t.Errorf("%s block homed at place %d, want place %d (reduce partition %d)",
					sidePath, b.Place, want, part)
			}
		}
	}
	if sidePairs != 2 {
		t.Fatalf("side pairs across %d files: %d, want 2", len(sidePaths), sidePairs)
	}
}

// TestJobEndNotification: both engines fire the configured callback
// (§5.3).
func TestJobEndNotification(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 1})
	dfs.WriteFile(c.FS, "/in/f", []byte("x\n"))
	var fired atomic.Int32
	engine.RegisterJobEndCallback("test-callback", func(string) { fired.Add(1) })
	for i, eng := range []engine.Engine{c.Hadoop, c.M3R} {
		job := conf.NewJob()
		job.AddInputPath("/in")
		job.SetOutputPath("/out/cb" + eng.Name())
		job.SetMapperClass(mapred.IdentityMapperName)
		job.SetReducerClass(mapred.IdentityReducerName)
		job.SetNumReduceTasks(1)
		job.Set(conf.KeyJobEndNotificationURL, "test-callback")
		job.SetMapOutputKeyClass(types.LongName)
		job.SetMapOutputValueClass(types.TextName)
		job.SetOutputKeyClass(types.LongName)
		job.SetOutputValueClass(types.TextName)
		if _, err := eng.Submit(job); err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if fired.Load() != int32(i+1) {
			t.Errorf("%s: callback not fired", eng.Name())
		}
	}
}
