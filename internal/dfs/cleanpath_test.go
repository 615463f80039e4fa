package dfs_test

import (
	"strings"
	"testing"

	"m3r/internal/dfs"
)

// referenceCleanPath is CleanPath without its canonical fast path: every
// input is split on "/" and joined back.
func referenceCleanPath(p string) string {
	var out []string
	for _, s := range strings.Split(p, "/") {
		switch s {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, s)
		}
	}
	return "/" + strings.Join(out, "/")
}

var cleanPathSeeds = []string{
	"", "/", "//", "///", ".", "..", "/.", "/..", "./", "../", "/./", "/../",
	"a", "a/", "a/b", "./a", "../a", "/a", "/a/", "/a//", "/a/b", "/a/b/",
	"//a", "/a//b", "/a/./b", "/a/../b", "/a/b/..", "/a/b/.", "/../x",
	"/.a", "/a.", "/..a", "/a..", "/...", "/a/.../b", "/.m3r-splits/f/0+12",
	"/pr/m3r/temp_gp_3/part-00001",
}

// FuzzCleanPath holds CleanPath to the split/join reference on any input,
// and checks that the fast path's verdict is the reference's fixed point.
func FuzzCleanPath(f *testing.F) {
	for _, s := range cleanPathSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p string) {
		want := referenceCleanPath(p)
		if got := dfs.CleanPath(p); got != want {
			t.Fatalf("CleanPath(%q) = %q, reference %q", p, got, want)
		}
		if again := dfs.CleanPath(want); again != want {
			t.Fatalf("CleanPath(%q) = %q, want it unchanged", want, again)
		}
	})
}

func TestCleanPathCanonicalAllocatesNothing(t *testing.T) {
	for _, p := range []string{"/", "/a", "/a/b/c", "/.m3r-splits/pr/in/G/part-00003/0+81920"} {
		if n := testing.AllocsPerRun(100, func() { _ = dfs.CleanPath(p) }); n != 0 {
			t.Errorf("CleanPath(%q) allocates %.0f times, want 0", p, n)
		}
	}
}

func BenchmarkCleanPath(b *testing.B) {
	for _, c := range []struct{ name, path string }{
		{"canonical", "/pr/m3r/temp_gp_3/part-00001"},
		{"dirty", "pr//m3r/./temp_gp_3/../temp_gp_3/part-00001/"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				_ = dfs.CleanPath(c.path)
			}
		})
	}
}

// TestIsChildIsBelow: the listing predicates agree with a prefix-string
// reference on canonical paths, and allocate nothing.
func TestIsChildIsBelow(t *testing.T) {
	paths := []string{"/", "/a", "/ab", "/a/b", "/a/b/c", "/a/bc", "/b", "/a/b/c/d"}
	for _, dir := range paths {
		prefix := dir + "/"
		if dir == "/" {
			prefix = "/"
		}
		for _, p := range paths {
			below := p != dir && strings.HasPrefix(p, prefix)
			child := below && !strings.Contains(p[len(prefix):], "/")
			if got := dfs.IsBelow(p, dir); got != below {
				t.Errorf("IsBelow(%q, %q) = %v, want %v", p, dir, got, below)
			}
			if got := dfs.IsChild(p, dir); got != child {
				t.Errorf("IsChild(%q, %q) = %v, want %v", p, dir, got, child)
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { dfs.IsChild("/a/b", "/a"); dfs.IsBelow("/a/b/c", "/a") }); a != 0 {
		t.Errorf("the predicates allocate %v times", a)
	}
}
