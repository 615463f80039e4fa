package engine

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// refCandidate is one entry of the sort-the-slice reference model.
type refCandidate struct {
	k               int
	size, rank, seq int64
}

// TestResidentIndexMatchesSortedReference drives random Add / Remove /
// TakeLargest / Close sequences through a ResidentIndex and a reference that
// keeps a plain slice and sorts it (size desc, rank asc, admission asc) on
// every take. Sizes and ranks come from small ranges so ties in both are
// common — the tie-breaks are where a map-iteration-order bug would hide.
// The replacement-policy hazards checked: a victim is claimed once, never an
// equal-or-smaller one, a removed or replaced key never resurfaces, and a
// closed index admits nothing.
func TestResidentIndexMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := NewResidentIndex[int]()
		var ref []refCandidate
		var seq int64
		closed := false
		refRemove := func(k int) (int64, bool) {
			for i, c := range ref {
				if c.k == k {
					ref = append(ref[:i], ref[i+1:]...)
					return c.size, true
				}
			}
			return 0, false
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(1000); {
			case op < 500:
				k, size, rank := rng.Intn(24), int64(1+rng.Intn(6)), int64(rng.Intn(3))
				if got := ix.Add(k, size, rank); got == closed {
					t.Fatalf("seed %d step %d: Add reported %v on an index with closed=%v", seed, step, got, closed)
				}
				if !closed {
					refRemove(k)
					seq++
					ref = append(ref, refCandidate{k, size, rank, seq})
				}
			case op < 650:
				k := rng.Intn(24)
				wantSize, wantOK := refRemove(k)
				if size, ok := ix.Remove(k); ok != wantOK || size != wantSize {
					t.Fatalf("seed %d step %d: Remove(%d) = (%d, %v), want (%d, %v)", seed, step, k, size, ok, wantSize, wantOK)
				}
			case op < 998:
				min := int64(rng.Intn(7))
				sort.Slice(ref, func(i, j int) bool {
					a, b := ref[i], ref[j]
					if a.size != b.size {
						return a.size > b.size
					}
					if a.rank != b.rank {
						return a.rank < b.rank
					}
					return a.seq < b.seq
				})
				k, size, ok := ix.TakeLargest(min)
				if len(ref) == 0 || ref[0].size <= min {
					if ok {
						t.Fatalf("seed %d step %d: TakeLargest(%d) took (%d, size %d) with no candidate above min", seed, step, min, k, size)
					}
					break
				}
				if want := ref[0]; !ok || k != want.k || size != want.size {
					t.Fatalf("seed %d step %d: TakeLargest(%d) = (%d, %d, %v), want (%d, %d, true)", seed, step, min, k, size, ok, want.k, want.size)
				}
				ref = ref[1:]
			default:
				ix.Close()
				closed, ref = true, nil
			}
			if got := ix.Len(); got != len(ref) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, got, len(ref))
			}
		}
	}
}

// TestResidentIndexConcurrentClaimsOnce races takers against adders: every
// candidate added must be claimed by exactly one TakeLargest.
func TestResidentIndexConcurrentClaimsOnce(t *testing.T) {
	const adders, perAdder, takers = 4, 200, 4
	ix := NewResidentIndex[int]()
	claims := make([]atomic.Int32, adders*perAdder)
	var added, taking sync.WaitGroup
	for a := 0; a < adders; a++ {
		added.Add(1)
		go func() {
			defer added.Done()
			for i := 0; i < perAdder; i++ {
				ix.Add(a*perAdder+i, int64(1+i%5), 0)
			}
		}()
	}
	stop := make(chan struct{})
	for w := 0; w < takers; w++ {
		taking.Add(1)
		go func() {
			defer taking.Done()
			for {
				stopped := false
				select {
				case <-stop:
					stopped = true
				default:
				}
				k, _, ok := ix.TakeLargest(0)
				if ok {
					claims[k].Add(1)
				} else if stopped { // read empty after every Add returned
					return
				}
			}
		}()
	}
	added.Wait()
	close(stop)
	taking.Wait()
	for k := range claims {
		if n := claims[k].Load(); n != 1 {
			t.Fatalf("candidate %d claimed %d times, want 1", k, n)
		}
	}
}
