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

// TestNewCellsSharesOneAllocation: a NewCells set's counters share one
// allocation and its map is made at its final size, so the set costs the
// same for 4 cells as for 8; every Ptr is filled, a name listed twice is
// one counter, and Find returns the cells' counters.
func TestNewCellsSharesOneAllocation(t *testing.T) {
	ptrs := make([]*counters.Counter, 8)
	cells := func(names ...string) []counters.Cell {
		out := make([]counters.Cell, len(names))
		for i, n := range names {
			out[i] = counters.Cell{Group: "g", Name: n, Ptr: &ptrs[i]}
		}
		return out
	}
	four, eight := cells("a", "b", "c", "d"), cells("a", "b", "c", "d", "e", "f", "g", "h")
	small := testing.AllocsPerRun(100, func() { counters.NewCells(four) })
	large := testing.AllocsPerRun(100, func() { counters.NewCells(eight) })
	if small != large {
		t.Errorf("NewCells: %.0f allocations for 4 cells, %.0f for 8; want equal", small, large)
	}
	plain := testing.AllocsPerRun(100, func() {
		cs := counters.New()
		for _, c := range eight {
			cs.Find(c.Group, c.Name)
		}
	})
	if large >= plain {
		t.Errorf("NewCells: %.0f allocations, New and Find: %.0f; want fewer", large, plain)
	}

	cs := counters.NewCells(append(cells("a", "b", "a"), counters.Cell{Group: "h", Name: "a", Ptr: &ptrs[3]}))
	if ptrs[0] != ptrs[2] || ptrs[0] == ptrs[1] || ptrs[0] == ptrs[3] {
		t.Error("one counter per group and name")
	}
	for i, want := range []struct{ group, name string }{{"g", "a"}, {"g", "b"}, {"g", "a"}, {"h", "a"}} {
		if c := ptrs[i]; c.Group() != want.group || c.Name() != want.name || cs.Find(want.group, want.name) != c {
			t.Errorf("cell %d: %s/%s, want %s/%s held by the set", i, c.Group(), c.Name(), want.group, want.name)
		}
	}
	if cs.Find("g", "z") == ptrs[1] || len(cs.GroupCounters("g")) != 3 {
		t.Error("a Find past the cells makes a new counter")
	}
}
