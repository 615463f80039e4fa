package counters_test

import (
	"bytes"
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
	if c.Group() != "g" || c.Name() != "n" {
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

// TestNewSizedSharesOneAllocation: the counters a NewSized set creates
// first come out of one allocation; past n, Find allocates as New's does.
func TestNewSizedSharesOneAllocation(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	find := func(cs *counters.Counters) {
		for _, n := range names {
			cs.Find("g", n)
		}
	}
	sized := testing.AllocsPerRun(100, func() { find(counters.NewSized(len(names))) })
	plain := testing.AllocsPerRun(100, func() { find(counters.New()) })
	if sized != plain-float64(len(names))+1 {
		t.Errorf("NewSized: %.0f allocations, New: %.0f; want %d fewer", sized, plain, len(names)-1)
	}
	cs := counters.NewSized(1)
	find(cs)
	if cs.Find("g", "a") == cs.Find("g", "b") || cs.Find("g", "d").Name() != "d" {
		t.Error("spare counters are handed out once each")
	}
}
