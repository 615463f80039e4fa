package sim_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"m3r/internal/sim"
)

func TestStatsConcurrent(t *testing.T) {
	s := sim.NewStats()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.Add("x", 1)
				s.Add("y", 2)
			}
		}()
	}
	wg.Wait()
	if s.Get("x") != 8000 || s.Get("y") != 16000 {
		t.Errorf("x=%d y=%d", s.Get("x"), s.Get("y"))
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "x" {
		t.Errorf("names: %v", names)
	}
}

// TestStatsNewNamesAgainstSnapshot hammers the copy-on-write table: writers
// add to names that exist and names nobody has used yet while readers take
// snapshots. Run under -race it checks the publication; the sums check that
// a table swap never drops a counter or an increment.
func TestStatsNewNamesAgainstSnapshot(t *testing.T) {
	const writers, names, rounds = 4, 64, 50
	s := sim.NewStats()
	s.Add("shared", 0)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				if _, ok := snap["shared"]; !ok {
					t.Error("snapshot lost a counter that was already present")
					return
				}
				if len(s.Names()) < len(snap) {
					t.Error("a later table holds fewer names than an earlier one")
					return
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for n := 0; n < names; n++ {
					// Every writer is first to some names and late to others.
					s.Add(fmt.Sprintf("n%d", (n+w*names/writers)%names), 1)
					s.Add("shared", 1)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := s.Get("shared"); got != writers*names*rounds {
		t.Errorf("shared = %d, want %d", got, writers*names*rounds)
	}
	snap := s.Snapshot()
	if len(snap) != names+1 {
		t.Errorf("%d names, want %d", len(snap), names+1)
	}
	for n := 0; n < names; n++ {
		if got := snap[fmt.Sprintf("n%d", n)]; got != writers*rounds {
			t.Errorf("n%d = %d, want %d", n, got, writers*rounds)
		}
	}
	s.Reset()
	if got := s.Get("shared"); got != 0 || len(s.Names()) != names+1 {
		t.Errorf("after Reset: shared = %d, %d names; want 0 and the names kept", got, len(s.Names()))
	}
}

func TestNilStatsSafe(t *testing.T) {
	var s *sim.Stats
	s.Add("x", 1) // must not panic
	if s.Get("x") != 0 {
		t.Error("nil stats get")
	}
	if s.Snapshot() != nil {
		t.Error("nil snapshot")
	}
}

func TestDelta(t *testing.T) {
	before := map[string]int64{"a": 1, "b": 5}
	after := map[string]int64{"a": 4, "b": 5, "c": 2}
	d := sim.Delta(before, after)
	if d["a"] != 3 || d["b"] != 0 || d["c"] != 2 {
		t.Errorf("delta: %v", d)
	}
}

func TestCostModelSleepDisabled(t *testing.T) {
	s := sim.NewStats()
	c := &sim.CostModel{JVMStartup: time.Hour, Sleep: false}
	start := time.Now()
	c.ChargeJVMStart(s)
	if time.Since(start) > time.Second {
		t.Fatal("Sleep=false must not sleep")
	}
	if s.Get(sim.JVMStartNs) != int64(time.Hour) {
		t.Error("charge must still be accounted")
	}
}

func TestCostModelSleepEnabled(t *testing.T) {
	s := sim.NewStats()
	c := &sim.CostModel{Heartbeat: 3 * time.Millisecond, Sleep: true}
	start := time.Now()
	c.ChargeHeartbeat(s)
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("expected a real sleep, took %v", elapsed)
	}
}

func TestZeroAndDefaultModels(t *testing.T) {
	z := sim.Zero()
	s := sim.NewStats()
	z.ChargeJVMStart(s)
	z.ChargeNet(s, 1<<20)
	z.ChargeDisk(s, 1<<20)
	if s.Get(sim.ModeledDelayNs) != 0 {
		t.Error("zero model must charge nothing")
	}
	d := sim.Default()
	if d.JVMStartup == 0 || d.Heartbeat == 0 || !d.Sleep {
		t.Error("default model should model the cluster costs")
	}
}
