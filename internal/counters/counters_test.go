package counters_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"m3r/internal/counters"
	"m3r/internal/wio"
)

func TestFindAndIncrement(t *testing.T) {
	cs := counters.New()
	c := cs.Find("g", "n")
	c.Increment(5)
	c.Increment(-2)
	if c.Value() != 3 {
		t.Errorf("value %d", c.Value())
	}
	if cs.Find("g", "n") != c {
		t.Error("Find must return the same counter")
	}
	cs.Incr("g", "n", 7)
	if cs.Value("g", "n") != 10 {
		t.Errorf("value %d", cs.Value("g", "n"))
	}
	if cs.Value("missing", "x") != 0 {
		t.Error("missing counter should read 0")
	}
	if gc := cs.GroupCounters("g"); len(gc) != 1 || gc[0].Group() != "g" || gc[0].Name() != "n" || gc[0].Counter != c {
		t.Error("group/name accessors")
	}
}

func TestConcurrentIncrements(t *testing.T) {
	cs := counters.New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				cs.Incr("g", "n", 1)
			}
		}()
	}
	wg.Wait()
	if got := cs.Value("g", "n"); got != 16000 {
		t.Errorf("lost updates: %d", got)
	}
}

func TestMergeFrom(t *testing.T) {
	a, b := counters.New(), counters.New()
	a.Incr("g", "x", 1)
	b.Incr("g", "x", 2)
	b.Incr("g2", "y", 5)
	a.MergeFrom(b)
	if a.Value("g", "x") != 3 || a.Value("g2", "y") != 5 {
		t.Errorf("merge wrong: %s", a)
	}
}

func TestGroupsSorted(t *testing.T) {
	cs := counters.New()
	cs.Incr("zeta", "a", 1)
	cs.Incr("alpha", "b", 1)
	groups := cs.Groups()
	if len(groups) != 2 || groups[0] != "alpha" || groups[1] != "zeta" {
		t.Errorf("groups: %v", groups)
	}
	cs.Incr("alpha", "a2", 1)
	gc := cs.GroupCounters("alpha")
	if len(gc) != 2 || gc[0].Name() != "a2" {
		t.Errorf("group counters: %v", gc)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	cs := counters.New()
	cs.Incr(counters.TaskGroup, counters.MapInputRecords, 12)
	cs.Incr("user", "things", -4)
	var buf bytes.Buffer
	if err := cs.WriteTo(wio.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	out := counters.New()
	if err := out.ReadFields(wio.NewReader(&buf)); err != nil {
		t.Fatal(err)
	}
	if out.Value(counters.TaskGroup, counters.MapInputRecords) != 12 ||
		out.Value("user", "things") != -4 {
		t.Errorf("round trip: %s", out)
	}
}

// TestMergeFromSelfAndCrosswise: merging a set into itself doubles its
// non-zero counters and leaves zero ones out, and two sets merging into
// each other at once finish — neither holds its own lock while it waits for
// the other's.
func TestMergeFromSelfAndCrosswise(t *testing.T) {
	a, b := counters.New(), counters.New()
	a.Incr("g", "x", 3)
	a.Find("g", "zero")
	b.Incr("h", "y", 2)
	a.MergeFrom(a)
	b.MergeFrom(a)
	if a.Value("g", "x") != 6 || b.Value("g", "x") != 6 || b.Value("h", "y") != 2 {
		t.Errorf("merge: a=%s b=%s", a, b)
	}
	if len(b.GroupCounters("g")) != 1 {
		t.Errorf("a zero counter was merged: %s", b)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for range 100 {
			wg.Add(2)
			go func() { defer wg.Done(); a.MergeFrom(b) }()
			go func() { defer wg.Done(); b.MergeFrom(a) }()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("crosswise MergeFrom deadlocked")
	}
}

// TestTaskSetIsOneSlab: a task set's standard counters are the fields of
// the one Slab it was made over — distinct cells, each named by the
// layout, and Find or Value of a cell's name reaches that cell — so
// making the set allocates nothing, and neither does a Find of a layout
// name; only a name off the layout makes the set's map.
func TestTaskSetIsOneSlab(t *testing.T) {
	var s counters.Slab
	var cs counters.Counters
	set := counters.TaskSet(&cs, &s)
	if set != &cs {
		t.Fatal("TaskSet returns the set it was given")
	}
	fields := reflect.ValueOf(&s).Elem()
	names := listed(set)
	seen := map[string]bool{}
	for i := range fields.NumField() {
		c := fields.Field(i).Addr().Interface().(*counters.Counter)
		n := names[c]
		id := n.Group() + "/" + n.Name()
		if n.Name() == "" || seen[id] {
			t.Errorf("field %s is named %q, want a name of its own", fields.Type().Field(i).Name, id)
			continue
		}
		seen[id] = true
		if set.Find(n.Group(), n.Name()) != c {
			t.Errorf("Find(%s) is not field %s", id, fields.Type().Field(i).Name)
		}
		set.Incr(n.Group(), n.Name(), int64(i+1))
		if c.Value() != int64(i+1) || set.Value(n.Group(), n.Name()) != int64(i+1) {
			t.Errorf("Incr(%s) missed field %s", id, fields.Type().Field(i).Name)
		}
	}
	if got := len(set.GroupCounters(counters.TaskGroup)) + len(set.GroupCounters(counters.M3RGroup)); got != fields.NumField() {
		t.Errorf("the set lists %d standard counters, its slab has %d", got, fields.NumField())
	}
	if a := testing.AllocsPerRun(100, func() {
		counters.TaskSet(&cs, &s)
		cs.Incr(counters.M3RGroup, counters.CacheHitSplits, 1)
		cs.Find(counters.TaskGroup, counters.ReduceShuffleBytes)
	}); a != 0 {
		t.Errorf("a task set and Finds of layout names allocate %v times, want 0", a)
	}
	user := set.Find("user", "x")
	if user == set.Find("user", "y") || set.Find("user", "x") != user || len(set.GroupCounters("user")) != 2 {
		t.Error("a name off the layout is a counter of its own in the set's map")
	}
}

// listed maps every counter a set lists to its name.
func listed(set *counters.Counters) map[*counters.Counter]counters.Named {
	names := map[*counters.Counter]counters.Named{}
	for _, g := range set.Groups() {
		for _, n := range set.GroupCounters(g) {
			names[n.Counter] = n
		}
	}
	return names
}

// TestTaskSetRoundTrip: a task set's WriteTo lists every slab counter and
// every user counter, and ReadFields — into a job set or another task
// set — gets back every name and value.
func TestTaskSetRoundTrip(t *testing.T) {
	var s counters.Slab
	var cs counters.Counters
	set := counters.TaskSet(&cs, &s)
	s.MapInputRecords.Increment(7)
	set.Incr(counters.M3RGroup, counters.NetBytes, 3)
	set.Incr("user", "things", -4)
	var buf bytes.Buffer
	if err := set.WriteTo(wio.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	want := set.String()
	var s2 counters.Slab
	var cs2 counters.Counters
	for _, out := range []*counters.Counters{counters.New(), counters.TaskSet(&cs2, &s2)} {
		out.Incr("stale", "x", 1)
		if err := out.ReadFields(wio.NewReader(bytes.NewReader(buf.Bytes()))); err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != want {
			t.Errorf("round trip:\n%s\nwant\n%s", got, want)
		}
	}
	if s2.MapInputRecords.Value() != 7 {
		t.Error("ReadFields into a task set fills its slab")
	}
}

// TestTaskStatReadsItsRow: TaskStat(i) is the value of the counter
// TaskStats' row i names, in the task set over the slab.
func TestTaskStatReadsItsRow(t *testing.T) {
	var cs counters.Counters
	var s counters.Slab
	set := counters.TaskSet(&cs, &s)
	for i, row := range counters.TaskStats {
		set.Incr(row.Group, row.Name, int64(i+1))
	}
	for i, row := range counters.TaskStats {
		if got := s.TaskStat(i); got != int64(i+1) || got != set.Value(row.Group, row.Name) {
			t.Errorf("TaskStat(%d) = %d, want %d (%s/%s)", i, got, i+1, row.Group, row.Name)
		}
	}
}

// TestJobSetListsWhatAMapSetDoes: a job set keeps the standard counters on
// its cells and lists only the non-zero ones, so fed what an engine feeds a
// job — task sets merged, the job's own counters, a gauge set to zero, user
// counters — it writes the bytes a set of map counters writes. Making it is
// one allocation, and merging a task's standard counters and counting the
// launched tasks allocate nothing.
func TestJobSetListsWhatAMapSetDoes(t *testing.T) {
	var s counters.Slab
	var ts counters.Counters
	task := counters.TaskSet(&ts, &s)
	s.MapInputRecords.Increment(7)
	s.ClonedPairs.Increment(3)
	task.Incr("user", "things", -4)
	job, ref := counters.NewJob(), counters.New()
	for _, cs := range []*counters.Counters{job, ref} {
		cs.MergeFrom(task)
		cs.MergeFrom(task)
		cs.Incr(counters.JobGroup, counters.TotalLaunchedMaps, 2)
		cs.Incr(counters.JobGroup, counters.DataLocalMaps, 1)
		cs.Find(counters.M3RGroup, counters.CacheResidentBytes).SetValue(0)
	}
	var a, b bytes.Buffer
	if err := job.WriteTo(wio.NewWriter(&a)); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteTo(wio.NewWriter(&b)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) || job.String() != ref.String() {
		t.Errorf("job set:\n%s\nmap set:\n%s", job, ref)
	}
	if job.Value(counters.TaskGroup, counters.MapInputRecords) != 14 || job.Value(counters.JobGroup, counters.TotalLaunchedMaps) != 2 {
		t.Errorf("job set values: %s", job)
	}
	if n := testing.AllocsPerRun(100, func() { counters.NewJob() }); n != 1 {
		t.Errorf("NewJob allocates %v times, want 1", n)
	}
	job = counters.NewJob()
	s.ClonedPairs.SetValue(0)
	var ts2 counters.Counters
	std := counters.TaskSet(&ts2, &s)
	if n := testing.AllocsPerRun(100, func() {
		job.MergeFrom(std)
		job.Incr(counters.JobGroup, counters.TotalLaunchedReduces, 1)
	}); n != 0 {
		t.Errorf("merging standard counters into a job set allocates %v times, want 0", n)
	}
}
