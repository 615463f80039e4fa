package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/mapred"
	"m3r/internal/types"
	"m3r/internal/wio"
	_ "m3r/internal/wordcount" // registers the WordCount components used below
)

func baseJob() *conf.JobConf {
	job := conf.NewJob()
	job.SetMapperClass(mapred.IdentityMapperName)
	job.SetReducerClass(mapred.IdentityReducerName)
	job.SetMapOutputKeyClass(types.TextName)
	job.SetMapOutputValueClass(types.IntName)
	job.SetOutputKeyClass(types.TextName)
	job.SetOutputValueClass(types.IntName)
	return job
}

func TestResolveDefaults(t *testing.T) {
	rj, err := engine.Resolve(baseJob())
	if err != nil {
		t.Fatal(err)
	}
	if rj.NumReducers != 1 || rj.MapOnly {
		t.Error("defaults")
	}
	if rj.MapImmutable {
		t.Error("identity mapper + default runner must not be immutable")
	}
	if rj.HasCombiner {
		t.Error("no combiner configured")
	}
	if rj.RawSortCmp == nil {
		t.Error("Text keys should get a raw comparator")
	}
	if rj.NewMapRun() == nil || rj.NewReduceRun() == nil || rj.NewPartitioner() == nil {
		t.Error("factories")
	}
	if rj.NewCombineRun() != nil {
		t.Error("combiner factory should be nil")
	}
}

func TestResolveErrors(t *testing.T) {
	job := baseJob()
	job.SetMapperClass("missing.Mapper")
	if _, err := engine.Resolve(job); err == nil {
		t.Error("unknown mapper should fail")
	}
	job = baseJob()
	job.SetInputFormatClass("missing.InputFormat")
	if _, err := engine.Resolve(job); err == nil {
		t.Error("unknown input format should fail")
	}
	job = baseJob()
	job.SetMapOutputKeyClass("missing.KeyClass")
	if _, err := engine.Resolve(job); err == nil {
		t.Error("unknown key class should fail")
	}
	job = baseJob()
	job.SetNumReduceTasks(-1)
	if _, err := engine.Resolve(job); err == nil {
		t.Error("negative reducers should fail")
	}
}

func TestSubstituteImmutableRunner(t *testing.T) {
	// An immutable mapper under the default runner is NOT immutable until
	// the M3R substitution (§4.1).
	job := baseJob()
	job.SetMapperClass("examples.WordCount$ImmutableMap")
	rj, err := engine.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	if rj.MapImmutable {
		t.Fatal("default runner must block immutability")
	}
	rj.SubstituteImmutableRunner()
	if !rj.MapImmutable {
		t.Fatal("substituted runner + marked mapper should be immutable")
	}

	// A custom runner is left alone.
	job2 := baseJob()
	job2.SetMapperClass("examples.WordCount$ImmutableMap")
	job2.SetMapRunnerClass(mapred.ImmutableMapRunnerName)
	rj2, err := engine.Resolve(job2)
	if err != nil {
		t.Fatal(err)
	}
	if !rj2.MapImmutable {
		t.Fatal("explicitly immutable runner + marked mapper")
	}
}

func TestMapTaskImmutableForTaggedSplits(t *testing.T) {
	job := baseJob()
	rj, err := engine.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	base := &formats.FileSplit{Path: "/f", Len: 1}
	marked := &formats.TaggedInputSplit{Base: base, MapperName: "examples.WordCount$ImmutableMap"}
	unmarked := &formats.TaggedInputSplit{Base: base, MapperName: "examples.WordCount$MutatingMap"}
	if !engine.MapTaskImmutable(rj, marked) {
		t.Error("tagged split with marked mapper should be immutable")
	}
	if engine.MapTaskImmutable(rj, unmarked) {
		t.Error("tagged split with unmarked mapper should not be immutable")
	}
}

func TestSortPairsStable(t *testing.T) {
	pairs := []wio.Pair{
		{Key: types.NewText("b"), Value: types.NewInt(1)},
		{Key: types.NewText("a"), Value: types.NewInt(2)},
		{Key: types.NewText("b"), Value: types.NewInt(3)},
		{Key: types.NewText("a"), Value: types.NewInt(4)},
	}
	engine.SortPairs(pairs, wio.NaturalOrder{})
	got := []int32{}
	for _, p := range pairs {
		got = append(got, p.Value.(*types.IntWritable).Get())
	}
	want := []int32{2, 4, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: %v", got)
		}
	}
}

func TestDriveReduceGroups(t *testing.T) {
	job := baseJob()
	rj, err := engine.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []wio.Pair{
		{Key: types.NewText("a"), Value: types.NewInt(1)},
		{Key: types.NewText("a"), Value: types.NewInt(2)},
		{Key: types.NewText("b"), Value: types.NewInt(3)},
	}
	ctx := engine.NewTaskContext(job, "t", nil)
	run := rj.NewReduceRun()
	run.Configure(job)
	var collected []wio.Pair
	out := mapred.CollectorFunc(func(k, v wio.Writable) error {
		collected = append(collected, wio.Pair{Key: k, Value: v})
		return nil
	})
	if err := engine.DriveReduce(run, rj.GroupCmp, engine.SlicePairs(pairs), out, ctx, false); err != nil {
		t.Fatal(err)
	}
	if len(collected) != 3 {
		t.Fatalf("identity reduce emitted %d pairs", len(collected))
	}
	if ctx.Counters.Value(counters.TaskGroup, counters.ReduceInputGroups) != 2 {
		t.Error("group count")
	}
	if ctx.Counters.Value(counters.TaskGroup, counters.ReduceInputRecords) != 3 {
		t.Error("record count")
	}
}

func TestCombineSumsGroups(t *testing.T) {
	job := baseJob()
	job.SetCombinerClass("examples.WordCount$Reduce")
	rj, err := engine.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	if !rj.HasCombiner || !rj.CombineImmutable {
		t.Fatal("combiner resolution")
	}
	pairs := []wio.Pair{
		{Key: types.NewText("x"), Value: types.NewInt(1)},
		{Key: types.NewText("y"), Value: types.NewInt(1)},
		{Key: types.NewText("x"), Value: types.NewInt(1)},
	}
	ctx := engine.NewTaskContext(job, "t", nil)
	combined, err := engine.Combine(rj, pairs, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(combined) != 2 {
		t.Fatalf("combined to %d pairs", len(combined))
	}
	if combined[0].Key.(*types.Text).String() != "x" ||
		combined[0].Value.(*types.IntWritable).Get() != 2 {
		t.Errorf("combined: %v=%v", combined[0].Key, combined[0].Value)
	}
}

// TestNewTaskContextOnePiece: every hot-path cell is its own counter of
// the task's set, and building the context is one allocation — the
// context, with the set and its slab of standard counters inside it.
func TestNewTaskContextOnePiece(t *testing.T) {
	job := baseJob()
	ctx := engine.NewTaskContext(job, "t", nil)
	cells := reflect.ValueOf(&ctx.Cells).Elem()
	names := map[*counters.Counter]counters.Named{}
	for _, g := range ctx.Counters.Groups() {
		for _, n := range ctx.Counters.GroupCounters(g) {
			names[n.Counter] = n
		}
	}
	seen := map[*counters.Counter]bool{}
	for i := range cells.NumField() {
		c := cells.Field(i).Addr().Interface().(*counters.Counter)
		n, ok := names[c]
		if !ok || seen[c] || ctx.Counters.Find(n.Group(), n.Name()) != c {
			t.Errorf("cell %s is not its own counter of the task's set", cells.Type().Field(i).Name)
			continue
		}
		seen[c] = true
	}
	if a := testing.AllocsPerRun(100, func() { engine.NewTaskContext(job, "t", nil) }); a > 1 {
		t.Errorf("NewTaskContext allocates %v times, want at most 1", a)
	}
}

// BenchmarkNewTaskContext: one task attempt's context and its counter slab.
func BenchmarkNewTaskContext(b *testing.B) {
	job := baseJob()
	b.ReportAllocs()
	for b.Loop() {
		engine.NewTaskContext(job, "t", nil)
	}
}

// BenchmarkTaskAttemptSetup: what every task attempt pays before its first
// record, on a job conf of 40 properties — the attempt's conf cloned from
// the job's with the two task keys set, its context, three counters
// incremented by name and the set merged into the job's.
func BenchmarkTaskAttemptSetup(b *testing.B) {
	job := baseJob()
	job.SetJobName("pagerank-iter")
	job.AddInputPath("/data/in")
	job.SetOutputPath("/data/temp_out")
	for i := job.Len(); i < 40; i++ {
		job.SetInt(fmt.Sprintf("mapred.site.property.%02d", i), i)
	}
	jobCounters := counters.New()
	b.ReportAllocs()
	for b.Loop() {
		taskJob := job.CloneJob()
		taskJob.SetInt(conf.KeyTaskPartition, 3)
		taskJob.SetInt(conf.KeyM3RTaskPlace, 1)
		ctx := engine.NewTaskContext(taskJob, "attempt_job_m3r_0001_m_000003_0", nil)
		ctx.IncrCounter(counters.M3RGroup, counters.CacheMissSplits, 1)
		ctx.IncrCounter(counters.TaskGroup, counters.RemoteShuffleBytes, 512)
		ctx.IncrCounter(counters.M3RGroup, counters.DedupHits, 2)
		jobCounters.MergeFrom(ctx.Counters)
	}
}

func TestTaskContextSurface(t *testing.T) {
	job := baseJob()
	split := &formats.FileSplit{Path: "/f", Len: 10}
	ctx := engine.NewTaskContext(job, "task_1", split)
	if ctx.InputSplit() != formats.InputSplit(split) {
		t.Error("split")
	}
	if ctx.Configuration() != job {
		t.Error("configuration")
	}
	ctx.SetStatus("working")
	if ctx.Status() != "working" {
		t.Error("status")
	}
	ctx.IncrCounter("g", "n", 2)
	if ctx.Counter("g", "n").Value() != 2 {
		t.Error("counter")
	}
	if err := ctx.Write(types.NewText("k"), types.NewInt(1)); err == nil {
		t.Error("write without sink must fail")
	}
	var got wio.Pair
	ctx.SetEmit(func(k, v wio.Writable) error {
		got = wio.Pair{Key: k, Value: v}
		return nil
	})
	if err := ctx.Write(types.NewText("k"), types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if got.Key == nil {
		t.Error("emit not wired")
	}
	ctx.Progress() // no-op, for coverage of the API surface
}
