package kvstore_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"m3r/internal/dfs"
	"m3r/internal/kvstore"
	"m3r/internal/sim"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/x10"
)

func newStore(places int) (*kvstore.Store, *sim.Stats) {
	stats := sim.NewStats()
	rt := x10.NewRuntime(x10.Options{Places: places, WorkersPerPlace: 2, Stats: stats, Cost: sim.Zero()})
	return kvstore.New(rt), stats
}

func pairsN(n int) []wio.Pair {
	out := make([]wio.Pair, n)
	for i := range out {
		out[i] = wio.Pair{Key: types.NewInt(int32(i)), Value: types.NewText(fmt.Sprintf("v%d", i))}
	}
	return out
}

func TestWriteReadLocalAliases(t *testing.T) {
	s, _ := newStore(2)
	w, err := s.CreateWriter(1, "/f", "tag")
	if err != nil {
		t.Fatal(err)
	}
	ps := pairsN(3)
	w.AppendAll(ps)
	info, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Place != 1 || info.Tag != "tag" {
		t.Errorf("block info: %+v", info)
	}
	// Local read aliases the stored objects.
	r, err := s.CreateReader(1, "/f", info)
	if err != nil {
		t.Fatal(err)
	}
	if r.Remote {
		t.Error("local read marked remote")
	}
	p, ok := r.Next()
	if !ok || p.Key != ps[0].Key {
		t.Error("local read must alias stored pairs")
	}
	if r.Len() != 3 {
		t.Errorf("len %d", r.Len())
	}
}

func TestReadRemoteCopies(t *testing.T) {
	s, stats := newStore(2)
	w, _ := s.CreateWriter(0, "/f", "")
	ps := pairsN(5)
	w.AppendAll(ps)
	info, _ := w.Close()
	r, err := s.CreateReader(1, "/f", info)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Remote {
		t.Error("cross-place read must be remote")
	}
	p, _ := r.Next()
	if p.Key == ps[0].Key {
		t.Error("remote read must not alias")
	}
	if !wio.Equal(p.Key, ps[0].Key) {
		t.Error("remote read must preserve values")
	}
	if stats.Get(sim.RemoteBytes) == 0 {
		t.Error("remote read should count bytes")
	}
}

func TestGetInfoAndAttrs(t *testing.T) {
	s, _ := newStore(3)
	w, _ := s.CreateWriter(2, "/dir/f", "x")
	w.AppendAll(pairsN(4))
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, ok := s.GetInfo("/dir/f")
	if !ok || info.Pairs != 4 || len(info.Blocks) != 1 {
		t.Fatalf("info: %+v ok=%v", info, ok)
	}
	// CreateWriter made the missing parent a directory.
	if dir, ok := s.GetInfo("/dir"); !ok || !dir.Dir || len(s.Children("/dir")) != 1 {
		t.Fatalf("parent of a new file: %+v ok=%v, children %v", dir, ok, s.Children("/dir"))
	}
	if err := s.SetAttr("/dir/f", "k", "v"); err != nil {
		t.Fatal(err)
	}
	info, _ = s.GetInfo("/dir/f")
	if info.Attrs["k"] != "v" {
		t.Error("attr lost")
	}
	if err := s.SetAttr("/missing", "k", "v"); err == nil {
		t.Error("setattr on missing path should fail")
	}
}

func TestMultiBlockAppend(t *testing.T) {
	s, _ := newStore(4)
	var infos []kvstore.BlockInfo
	for place := 0; place < 4; place++ {
		w, _ := s.CreateWriter(place, "/multi", fmt.Sprintf("b%d", place))
		w.AppendAll(pairsN(2))
		info, err := w.Close()
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}
	pi, ok := s.GetInfo("/multi")
	if !ok || len(pi.Blocks) != 4 || pi.Pairs != 8 {
		t.Fatalf("info: %+v", pi)
	}
	for i, b := range pi.Blocks {
		if b != infos[i] {
			t.Errorf("block %d: %+v vs %+v", i, b, infos[i])
		}
		if b.Place != i {
			t.Errorf("block %d at place %d", i, b.Place)
		}
	}
}

func TestMkdirsAndChildren(t *testing.T) {
	s, _ := newStore(3)
	if err := s.Mkdirs("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	info, ok := s.GetInfo("/a/b")
	if !ok || !info.Dir {
		t.Error("intermediate dir missing")
	}
	w, _ := s.CreateWriter(0, "/a/b/file", "")
	w.Close()
	kids := s.Children("/a/b")
	if len(kids) != 2 || kids[0] != "/a/b/c" || kids[1] != "/a/b/file" {
		t.Errorf("children: %v", kids)
	}
	// mkdirs through a file fails
	if err := s.Mkdirs("/a/b/file/deeper"); err == nil {
		t.Error("mkdirs through file should fail")
	}
}

func TestDeleteSubtreeFreesBlocks(t *testing.T) {
	s, _ := newStore(2)
	s.Mkdirs("/d")
	w, _ := s.CreateWriter(0, "/d/f1", "")
	w.AppendAll(pairsN(2))
	i1, _ := w.Close()
	w2, _ := s.CreateWriter(1, "/d/f2", "")
	w2.AppendAll(pairsN(2))
	w2.Close()
	if err := s.Delete("/d"); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/d") || s.Exists("/d/f1") || s.Exists("/d/f2") {
		t.Error("delete left metadata")
	}
	if _, err := s.CreateReader(0, "/d/f1", i1); err == nil {
		t.Error("read of deleted block should fail")
	}
	// Idempotent.
	if err := s.Delete("/d"); err != nil {
		t.Errorf("delete of missing path should be a no-op: %v", err)
	}
	if err := s.Delete("/"); err == nil {
		t.Error("deleting the root must fail")
	}
}

func TestRenameFileAndSubtree(t *testing.T) {
	s, _ := newStore(3)
	w, _ := s.CreateWriter(1, "/src/inner/f", "")
	w.AppendAll(pairsN(3))
	info, _ := w.Close()
	s.Mkdirs("/src/inner")
	if err := s.Rename("/src", "/dst"); err != nil {
		t.Fatal(err)
	}
	pi, ok := s.GetInfo("/dst/inner/f")
	if !ok || pi.Pairs != 3 {
		t.Fatalf("renamed file: %+v ok=%v", pi, ok)
	}
	// Data is still readable through the new path with the same block.
	r, err := s.CreateReader(1, "/dst/inner/f", info)
	if err != nil || r.Len() != 3 {
		t.Fatalf("read after rename: %v", err)
	}
	if s.Exists("/src") {
		t.Error("source remains")
	}
	// Rename into own subtree rejected.
	if err := s.Rename("/dst", "/dst/x"); err == nil {
		t.Error("rename into own subtree should fail")
	}
	// Rename onto existing path rejected.
	s.Mkdirs("/other")
	if err := s.Rename("/dst", "/other"); err == nil {
		t.Error("rename onto existing path should fail")
	}
	// Rename of missing source is a no-op, and makes no parents.
	if err := s.Rename("/nope", "/whatever/x"); err != nil || s.Exists("/whatever") {
		t.Errorf("rename missing: %v, destination parent made: %v", err, s.Exists("/whatever"))
	}
}

// TestRenameOntoAncestorKeepsBlocksReachable: a rename makes its
// destination's missing parents, so a file is never left under a missing
// directory, and a later rename onto that directory finds it present
// instead of replacing its entry. Both blocks stay listed and readable.
func TestRenameOntoAncestorKeepsBlocksReachable(t *testing.T) {
	s, _ := newStore(2)
	write := func(path string, n int) kvstore.BlockInfo {
		t.Helper()
		w, err := s.CreateWriter(0, path, "")
		if err != nil {
			t.Fatal(err)
		}
		w.AppendAll(pairsN(n))
		info, err := w.Close()
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	three := write("/a/y/z", 3)
	if err := s.Rename("/a/y", "/x/y"); err != nil {
		t.Fatal(err)
	}
	two := write("/x/z", 2)
	if err := s.Rename("/x/y", "/x"); !errors.Is(err, dfs.ErrExists) {
		t.Fatalf("rename of /x/y onto its parent /x: %v, want dfs.ErrExists", err)
	}
	for _, c := range []struct {
		path  string
		block kvstore.BlockInfo
		pairs int
	}{{"/x/y/z", three, 3}, {"/x/z", two, 2}} {
		info, ok := s.GetInfo(c.path)
		if !ok || len(info.Blocks) != 1 || info.Blocks[0] != c.block {
			t.Fatalf("%s: %+v ok=%v, want its one block %+v", c.path, info, ok, c.block)
		}
		if r, err := s.CreateReader(0, c.path, c.block); err != nil || r.Len() != c.pairs {
			t.Fatalf("%s: read err %v, want %d pairs", c.path, err, c.pairs)
		}
	}
	if dir, ok := s.GetInfo("/x"); !ok || !dir.Dir {
		t.Fatalf("/x: %+v ok=%v, want the directory the first rename made", dir, ok)
	}
	if err := s.CheckTree(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseOntoDirectoryFails: a writer whose path became a directory
// after CreateWriter fails its Close with an error naming the path, and
// installs nothing.
func TestCloseOntoDirectoryFails(t *testing.T) {
	s, _ := newStore(2)
	w, err := s.CreateWriter(0, "/p", "")
	if err != nil {
		t.Fatal(err)
	}
	w.AppendAll(pairsN(3))
	if err := s.Delete("/p"); err != nil {
		t.Fatal(err)
	}
	if err := s.Mkdirs("/p/q"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(); err == nil || !strings.Contains(err.Error(), "/p") {
		t.Fatalf("close onto a directory: %v, want an error naming /p", err)
	}
	if info, ok := s.GetInfo("/p"); !ok || !info.Dir || len(info.Blocks) != 0 || info.Pairs != 0 {
		t.Fatalf("/p after the failed close: %+v ok=%v, want an empty directory", info, ok)
	}
	if err := s.CheckTree(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMixedOps hammers the 2PL/LCA locking from many goroutines;
// run with -race to check the entry-lock protocol.
func TestConcurrentMixedOps(t *testing.T) {
	s, _ := newStore(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := fmt.Sprintf("/g%d", g)
			for i := 0; i < 30; i++ {
				f := fmt.Sprintf("%s/f%d", base, i)
				w, err := s.CreateWriter(g%4, f, "")
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				w.AppendAll(pairsN(1))
				if _, err := w.Close(); err != nil {
					t.Errorf("close: %v", err)
					return
				}
				if i%3 == 0 {
					if err := s.Rename(f, f+".moved"); err != nil {
						t.Errorf("rename: %v", err)
					}
				}
				if i%5 == 0 {
					if err := s.Delete(f + ".moved"); err != nil {
						t.Errorf("delete: %v", err)
					}
				}
				s.GetInfo(base)
				s.Children(base)
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentSharedPathContention drives many writers at ONE path to
// exercise the lock-entry/monitor upgrade under contention.
func TestConcurrentSharedPathContention(t *testing.T) {
	s, _ := newStore(2)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				w, err := s.CreateWriter(g%2, "/hot", "")
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				w.AppendAll(pairsN(1))
				if _, err := w.Close(); err != nil {
					t.Errorf("close: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	info, ok := s.GetInfo("/hot")
	if !ok || len(info.Blocks) != 320 || info.Pairs != 320 {
		t.Errorf("blocks=%d pairs=%d", len(info.Blocks), info.Pairs)
	}
}

// TestRenameDeleteNoDeadlock exercises cross-directory renames in both
// directions concurrently — the scenario the LCA ordering protocol (§5.2)
// exists to keep deadlock-free.
func TestRenameDeleteNoDeadlock(t *testing.T) {
	s, _ := newStore(3)
	s.Mkdirs("/a")
	s.Mkdirs("/b")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				x := fmt.Sprintf("/a/x%d_%d", g, i)
				y := fmt.Sprintf("/b/y%d_%d", g, i)
				w, _ := s.CreateWriter(0, x, "")
				w.Close()
				if g%2 == 0 {
					s.Rename(x, y)
					s.Delete(y)
				} else {
					s.Rename(x, x+".t")
					s.Rename(x+".t", y)
					s.Delete(y)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCreateWriterErrors(t *testing.T) {
	s, _ := newStore(2)
	if _, err := s.CreateWriter(9, "/f", ""); err == nil {
		t.Error("bad place should fail")
	}
	s.Mkdirs("/dir")
	if _, err := s.CreateWriter(0, "/dir", ""); err == nil {
		t.Error("writing to a directory should fail")
	}
	w, _ := s.CreateWriter(0, "/f", "")
	w.Close()
	if _, err := w.Close(); err == nil {
		t.Error("double close should fail")
	}
}

// TestDeleteRacingWritesUnderTheTree: writers create files in /d/e while
// /d is deleted, its subtree listed first. The files that sort before /d/e
// keep the delete busy while the writers add files the listing missed. A
// write holds its parent's lock, so each new file is either made before the
// delete takes its parent, and is in the delete's next listing, or after,
// when the writer makes the parents again; no file outlives its parent, and
// no block its path.
func TestDeleteRacingWritesUnderTheTree(t *testing.T) {
	s, _ := newStore(3)
	for round := range 20 {
		for i := range 200 {
			w, err := s.CreateWriter(i%3, fmt.Sprintf("/d/a%03d", i), "")
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
		}
		if err := s.Mkdirs("/d/e"); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 20 {
					w, err := s.CreateWriter(g%3, fmt.Sprintf("/d/e/f%d_%d", g, i), "")
					if err != nil {
						t.Errorf("round %d: %v", round, err)
						return
					}
					w.AppendAll(pairsN(1))
					if _, err := w.Close(); err != nil {
						t.Errorf("round %d: %v", round, err)
						return
					}
				}
			}()
		}
		if err := s.Delete("/d"); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if err := s.CheckTree(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := s.Delete("/d"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckTree(); err != nil {
		t.Fatal(err)
	}
}

// TestRenameRacingWritesUnderTheDestination: a write and a delete wait for
// /dst/a, a directory a rename is moving in, and act the moment it
// appears. The files that sort between /src/a and /src/a/zz keep the
// rename busy meanwhile. The rename holds each directory it moves in until
// it commits, so the write lands on the moved /dst/a/zz as a second block
// and the delete takes the whole moved subtree: nothing is overwritten,
// and no file outlives its parent.
func TestRenameRacingWritesUnderTheDestination(t *testing.T) {
	s, _ := newStore(3)
	for round := range 20 {
		for i := range 200 {
			w, err := s.CreateWriter(i%3, fmt.Sprintf("/src/a/%03d", i), "")
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
		}
		w, _ := s.CreateWriter(0, "/src/a/zz", "")
		w.AppendAll(pairsN(1))
		w.Close()
		deleting := round%2 == 1
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !s.Exists("/dst/a") {
				runtime.Gosched()
			}
			if deleting {
				if err := s.Delete("/dst/a"); err != nil {
					t.Error(err)
				}
				return
			}
			w, err := s.CreateWriter(1, "/dst/a/zz", "")
			if err == nil {
				w.AppendAll(pairsN(2))
				_, err = w.Close()
			}
			if err != nil {
				t.Error(err)
			}
		}()
		if err := s.Rename("/src", "/dst"); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if err := s.CheckTree(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if info, ok := s.GetInfo("/dst/a/zz"); !deleting && (!ok || info.Pairs != 3) {
			t.Fatalf("round %d: /dst/a/zz %+v ok=%v, want the moved pair and the written two", round, info, ok)
		}
		if err := s.Delete("/dst"); err != nil {
			t.Fatal(err)
		}
	}
}
