package kvstore_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"m3r/internal/dfs"
	"m3r/internal/kvstore"
)

// TestMetaPlaceIsFNV1a: the in-place hash places every path where
// hash/fnv's FNV-1a does, reduced as an unsigned 32-bit value — including
// paths whose hash has the top bit set, which a signed 32-bit int would
// turn into a negative table index.
func TestMetaPlaceIsFNV1a(t *testing.T) {
	for _, places := range []int{1, 2, 3, 7} {
		s, _ := newStore(places)
		topBit := 0
		for i := range 200 {
			p := fmt.Sprintf("/.m3r-splits/in/part-%05d/%d+%d", i, i*4096, 4096)
			h := fnv.New32a()
			h.Write([]byte(p))
			sum := h.Sum32()
			if sum >= 1<<31 {
				topBit++
			}
			if got, want := s.MetaPlace(p), int(sum%uint32(places)); got != want {
				t.Fatalf("%d places: %s at place %d, FNV-1a says %d", places, p, got, want)
			}
		}
		if topBit == 0 {
			t.Fatal("no path hashed to a value with the top bit set")
		}
	}
}

// TestUncontendedMetadataAllocatesNothing pins what a metadata operation
// allocates when nobody else holds its path's entry lock: the lock itself
// is the shared sentinel, the place is hashed in place, and reads copy only
// what they return. AllocsPerRun averages, so a bound of 0 means no run
// allocated.
func TestUncontendedMetadataAllocatesNothing(t *testing.T) {
	s, _ := newStore(3)
	if err := s.Mkdirs("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	w, _ := s.CreateWriter(1, "/a/b/c/f", "")
	w.AppendAll(pairsN(1))
	info, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetAttr("/a/b/c/f", "k", "v"); err != nil {
		t.Fatal(err)
	}
	w, _ = s.CreateWriter(1, "/a/plain", "")
	w.Close()
	fresh := make([]string, 101)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("/new%d/a/b", i)
	}
	next := 0

	for _, c := range []struct {
		name string
		max  float64
		op   func()
	}{
		{"GetInfo miss", 0, func() { s.GetInfo("/a/missing") }},
		{"GetInfo of a file without attributes (the blocks copy)", 1, func() { s.GetInfo("/a/plain") }},
		{"ViewInfo", 0, func() { s.ViewInfo("/a/b/c/f", func(kvstore.PathInfo) {}) }},
		{"Exists", 0, func() { s.Exists("/a/b/c/f") }},
		{"Exists miss", 0, func() { s.Exists("/a/missing") }},
		{"SetAttr", 0, func() { s.SetAttr("/a/b/c/f", "k", "v") }},
		{"Delete miss", 0, func() { s.Delete("/a/missing") }},
		{"Mkdirs of an existing path", 0, func() { s.Mkdirs("/a/b/c") }},
		{"Mkdirs of three new directories (the entries)", 3, func() { s.Mkdirs(fresh[next]); next++ }},
		{"CreateReader at the block's place (the Reader)", 1, func() { s.CreateReader(1, "/a/b/c/f", info) }},
		{"CreateWriter and Close (the Writer and the block's data entry)", 2, func() {
			w, _ := s.CreateWriter(2, "/a/b/c/f", "")
			w.Close()
		}},
	} {
		if a := testing.AllocsPerRun(100, c.op); a > c.max {
			t.Errorf("%s: %v allocations per call, want at most %v", c.name, a, c.max)
		}
	}
	if n := s.HeldLocks(); n != 0 {
		t.Errorf("%d entry locks still held", n)
	}
}

// TestSinglePathContention drives one path from many goroutines with every
// single-path operation, plus Renames to and from a path in another table,
// so entry locks are upgraded to monitors, handed from waiter to waiter and
// freed; run with -race. Every block holds one pair, so a reader must never
// see a path whose pair count and block count disagree, and at the end no
// table holds a lock.
func TestSinglePathContention(t *testing.T) {
	s, _ := newStore(4)
	const hot = "/hot/f"
	other := ""
	for i := 0; other == ""; i++ {
		if p := fmt.Sprintf("/cold/g%d", i); s.MetaPlace(p) != s.MetaPlace(hot) {
			other = p
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := range 12 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 60 {
				var err error
				switch (g + i) % 6 {
				case 0:
					var w *kvstore.Writer
					if w, err = s.CreateWriter(g%4, hot, ""); err == nil {
						w.AppendAll(pairsN(1))
						_, err = w.Close()
					}
				case 1:
					if err = s.SetAttr(hot, "owner", fmt.Sprint(g)); errors.Is(err, dfs.ErrNotFound) {
						err = nil
					}
				case 2, 5:
					if info, ok := s.GetInfo(hot); ok && info.Pairs != int64(len(info.Blocks)) {
						err = fmt.Errorf("%d pairs in %d one-pair blocks", info.Pairs, len(info.Blocks))
					}
				case 3:
					err = s.Delete(hot)
				case 4:
					src, dst := hot, other
					if g%2 == 1 {
						src, dst = other, hot
					}
					if err = s.Rename(src, dst); errors.Is(err, dfs.ErrExists) {
						err = nil
					}
				}
				if err != nil {
					t.Errorf("goroutine %d op %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("operations on one path deadlocked")
	}
	if n := s.HeldLocks(); n != 0 {
		t.Errorf("%d entry locks still held after every operation returned", n)
	}
}

// BenchmarkStoreMeta: one metadata operation on an existing path —
// getinfo (a one-block file, the blocks copied out), exists, and mkdirs of
// an existing three-deep directory.
func BenchmarkStoreMeta(b *testing.B) {
	s, _ := newStore(4)
	if err := s.Mkdirs("/a/b/c"); err != nil {
		b.Fatal(err)
	}
	w, _ := s.CreateWriter(1, "/a/b/c/f", "")
	w.AppendAll(pairsN(1))
	if _, err := w.Close(); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"getinfo", func() { s.GetInfo("/a/b/c/f") }},
		{"exists", func() { s.Exists("/a/b/c/f") }},
		{"mkdirs", func() { s.Mkdirs("/a/b/c") }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.op()
			}
		})
	}
}
