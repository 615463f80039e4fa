package lab_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/lab"
	"m3r/internal/sim"
	"m3r/internal/wordcount"
	"m3r/internal/x10"
)

func TestClusterLifecycle(t *testing.T) {
	c, err := lab.New(lab.Options{Nodes: 2, Cost: sim.Zero()})
	if err != nil {
		t.Fatal(err)
	}
	if c.Hadoop.Name() != "hadoop" || c.M3R.Name() != "m3r" {
		t.Error("engines")
	}
	if len(c.FS.Hosts()) != 2 {
		t.Error("hosts")
	}
	// Both engines are live and wired to the same HDFS.
	if err := wordcount.Generate(c.FS, "/t", 4<<10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.M3R.Submit(wordcount.NewJob("/t", "/o1", 1, true)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Hadoop.Submit(wordcount.NewJob("/t", "/o2", 1, true)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the engines refuse work.
	if _, err := c.M3R.Submit(wordcount.NewJob("/t", "/o3", 1, true)); err == nil {
		t.Error("closed engine should refuse submissions")
	}
}

func TestClusterExplicitDirKept(t *testing.T) {
	dir := t.TempDir()
	c, err := lab.New(lab.Options{Nodes: 1, Dir: dir, Cost: sim.Zero()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// A caller-owned dir must survive Close.
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("caller-owned dir removed: %v", err)
	}
}

// TestFailedNewRemovesItsDir: a cluster that fails to build — here the M3R
// engine rejects a malformed engine budget in the carrier — removes the temp
// directory New made for it.
func TestFailedNewRemovesItsDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	t.Setenv(conf.DefaultsEnv, conf.KeyM3REngineShuffleBudget+"=lots")
	if c, err := lab.New(lab.Options{Nodes: 1, Cost: sim.Zero()}); err == nil {
		c.Close()
		t.Fatal("New succeeded with a non-integer engine budget")
	}
	left, err := filepath.Glob(filepath.Join(tmp, "m3r-lab-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("failed New left %v behind", left)
	}
}

// failingClose is the loopback transport with a Close that fails.
type failingClose struct{ x10.Transport }

var errTransportClose = errors.New("transport close failed")

func (failingClose) Close() error { return errTransportClose }

// TestCloseReportsTransportError: the M3R engine's Close is its transport's,
// and the cluster's Close returns that error, having still removed the
// directory it made.
func TestCloseReportsTransportError(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	c, err := lab.New(lab.Options{Nodes: 2, Cost: sim.Zero(), Transport: failingClose{x10.Inproc()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); !errors.Is(err, errTransportClose) {
		t.Errorf("Close = %v, want the transport's error", err)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "m3r-lab-*")); len(left) != 0 {
		t.Errorf("Close left %v behind", left)
	}
}
