package engine

import (
	"fmt"
	"sync"
	"testing"
)

// TestStringsCut: strings cut from a Strings read back as they were cut,
// whether they fit the chunk Grow made or start further chunks, from
// several goroutines at once; one chunk holds what Grow made room for.
func TestStringsCut(t *testing.T) {
	var s Strings
	s.Grow(10 * len("id-00"))
	if a := testing.AllocsPerRun(1, func() {
		for i := range 10 {
			s.Cut(fmt.Appendf(make([]byte, 0, 8), "id-%02d", i))
		}
	}); a > 10 {
		// The loop's own buffers are ten; the cuts add none.
		t.Errorf("ten cuts into a grown chunk allocate %v times", a-10)
	}
	var wg sync.WaitGroup
	got := make([][]string, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				got[g] = append(got[g], s.Cut(fmt.Appendf(nil, "g%d-%d", g, i)))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, v := range got[g] {
			if want := fmt.Sprintf("g%d-%d", g, i); v != want {
				t.Fatalf("cut %q, want %q", v, want)
			}
		}
	}
}
