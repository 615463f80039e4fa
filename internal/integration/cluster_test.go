// Package integration_test runs whole jobs through both engines and checks
// they produce equivalent results — the paper's methodology: "We ran these
// Hadoop programs in both the standard Hadoop engine and in our M3R
// engine, on the same input from HDFS, and verified that they produced
// equivalent output" (§6).
package integration_test

import (
	"bufio"
	"sort"
	"strings"
	"testing"

	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/hadoop"
	"m3r/internal/lab"
	"m3r/internal/m3r"
	"m3r/internal/sim"
)

// newCluster builds opts' lab cluster over the test defaults: no modelled
// delays (tests assert on mechanism via stats), state under opts.Dir or
// else t.TempDir(), 64 KiB HDFS blocks, replication 1. It closes with the
// test, and a Close error fails the test.
func newCluster(t *testing.T, opts lab.Options) *lab.Cluster {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	opts.Cost, opts.BlockSize, opts.Replication = sim.Zero(), 64<<10, 1
	c, err := lab.New(opts)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	})
	return c
}

// readTextOutput reads every part file under dir on fs and returns the
// sorted lines.
func readTextOutput(t *testing.T, fs dfs.FileSystem, dir string) []string {
	t.Helper()
	files, err := dfs.ListRecursive(fs, dir)
	if err != nil {
		t.Fatalf("list %s: %v", dir, err)
	}
	var lines []string
	for _, f := range files {
		if !strings.HasPrefix(dfs.Base(f.Path), "part-") {
			continue
		}
		r, err := fs.Open(f.Path)
		if err != nil {
			t.Fatalf("open %s: %v", f.Path, err)
		}
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		r.Close()
	}
	sort.Strings(lines)
	return lines
}

var _ engine.Engine = (*hadoop.Engine)(nil)
var _ engine.Engine = (*m3r.Engine)(nil)
