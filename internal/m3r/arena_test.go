package m3r

import (
	"sync"
	"testing"

	"m3r/internal/types"
	"m3r/internal/wio"
)

// TestPairArenaRuns: runs appended pair by pair through one arena, in turns
// and from several goroutines, hold exactly what was appended, a run that is
// the chunk's last carve grows in place, and a run past arenaMax pairs
// leaves the arena.
func TestPairArenaRuns(t *testing.T) {
	var a pairArena
	pair := func(run, i int) wio.Pair {
		return wio.Pair{Key: types.NewInt(int32(run)), Value: types.NewInt(int32(i))}
	}
	check := func(run int, got []wio.Pair, n int) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("run %d holds %d pairs, want %d", run, len(got), n)
		}
		for i, p := range got {
			if p.Key.(*types.IntWritable).Get() != int32(run) || p.Value.(*types.IntWritable).Get() != int32(i) {
				t.Fatalf("run %d pair %d is %v/%v", run, i, p.Key, p.Value)
			}
		}
	}

	// One run alone grows in place while the chunk has room.
	one := a.make(1)
	one = a.append(one, pair(0, 0))
	first := &one[0]
	for i := 1; i < 4; i++ {
		one = a.append(one, pair(0, i))
	}
	if &one[0] != first {
		t.Error("the chunk's last run moved as it grew")
	}
	check(0, one, 4)

	// Runs appended in turns move, and never overwrite each other.
	runs := make([][]wio.Pair, 3)
	for i := range 3 * arenaMax {
		for r := range runs {
			runs[r] = a.append(runs[r], pair(r+1, i))
		}
	}
	for r, run := range runs {
		check(r+1, run, 3*arenaMax)
	}
	check(0, one, 4)

	// Concurrent runs.
	var wg sync.WaitGroup
	out := make([][]wio.Pair, 8)
	for r := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range arenaChunk {
				out[r] = a.append(out[r], pair(r, i))
			}
		}()
	}
	wg.Wait()
	for r, run := range out {
		check(r, run, arenaChunk)
	}

	// A large run is its own allocation, exactly its length.
	if big := a.make(arenaMax + 1); cap(big) != arenaMax+1 || len(big) != 0 {
		t.Errorf("a run of %d pairs: len %d cap %d", arenaMax+1, len(big), cap(big))
	}
}
