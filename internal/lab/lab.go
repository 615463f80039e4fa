// Package lab assembles a complete simulated cluster — HDFS, the Hadoop
// engine, and the M3R engine over the same nodes, the Hadoop engine
// attached as the M3R engine's fallback — for the examples, the CLI tools,
// the allocation ceilings and the integration tests. It is the Go
// equivalent of the paper's 20-node testbed, with the scaled-down cost
// model applied.
package lab

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"m3r/internal/dfs"
	"m3r/internal/hadoop"
	"m3r/internal/m3r"
	"m3r/internal/sim"
	"m3r/internal/x10"
)

// Options configures a lab cluster.
type Options struct {
	// Nodes is the number of simulated machines (default 4).
	Nodes int
	// WorkersPerPlace bounds per-node task concurrency (default 2).
	WorkersPerPlace int
	// BlockSize is the HDFS block size (default 256 KiB).
	BlockSize int64
	// Replication is the HDFS replication factor (default 2 when >1 node).
	Replication int
	// ShuffleBudgetBytes and CacheBudgetBytes are m3r.Options' fields of
	// the same names: the limit of the engine's per-place shuffle pool and
	// the cache's ceiling within it.
	ShuffleBudgetBytes int64
	CacheBudgetBytes   int64
	// Transport moves the M3R engine's cross-place shuffle frames; nil
	// means the in-process loopback backend. The engine takes ownership.
	Transport x10.Transport
	// Cost is the modelled cost model; nil means sim.Default() (with
	// sleeps, for wall-clock experiments). Use sim.Zero() in tests.
	Cost *sim.CostModel
	// Dir roots all on-disk state; defaults to a fresh temp dir removed
	// by Close.
	Dir string
}

// Cluster is a ready-to-use simulated cluster with both engines attached
// to one HDFS.
type Cluster struct {
	FS     *dfs.HDFS
	Hadoop *hadoop.Engine
	M3R    *m3r.Engine
	Stats  *sim.Stats
	Cost   *sim.CostModel
	Nodes  int

	dir    string
	ownDir bool
}

// New builds a cluster. On error it leaves behind no directory of its own.
func New(opts Options) (c *Cluster, err error) {
	nodes := opts.Nodes
	if nodes <= 0 {
		nodes = 4
	}
	blockSize := opts.BlockSize
	if blockSize <= 0 {
		blockSize = 256 << 10
	}
	repl := opts.Replication
	if repl <= 0 {
		if nodes > 1 {
			repl = 2
		} else {
			repl = 1
		}
	}
	cost := opts.Cost
	if cost == nil {
		cost = sim.Default()
	}
	dir := opts.Dir
	ownDir := false
	if dir == "" {
		if dir, err = os.MkdirTemp("", "m3r-lab-"); err != nil {
			return nil, err
		}
		ownDir = true
		defer func() {
			if err != nil {
				os.RemoveAll(dir)
			}
		}()
	}
	stats := sim.NewStats()
	hosts := make([]string, nodes)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("node%d", i)
	}
	fs, err := dfs.NewHDFS(dfs.HDFSOptions{
		Root:        filepath.Join(dir, "hdfs"),
		Hosts:       hosts,
		BlockSize:   blockSize,
		Replication: repl,
		Stats:       stats,
		Cost:        cost,
	})
	if err != nil {
		return nil, err
	}
	he, err := hadoop.New(hadoop.Options{
		FS:       fs,
		Nodes:    hosts,
		LocalDir: filepath.Join(dir, "local"),
		Stats:    stats,
		Cost:     cost,
	})
	if err != nil {
		return nil, err
	}
	me, err := m3r.New(m3r.Options{
		Backing:            fs,
		Places:             nodes,
		WorkersPerPlace:    opts.WorkersPerPlace,
		Fallback:           he,
		ShuffleBudgetBytes: opts.ShuffleBudgetBytes,
		CacheBudgetBytes:   opts.CacheBudgetBytes,
		Transport:          opts.Transport,
		Stats:              stats,
		Cost:               cost,
	})
	if err != nil {
		he.Close()
		return nil, err
	}
	return &Cluster{
		FS: fs, Hadoop: he, M3R: me,
		Stats: stats, Cost: cost, Nodes: nodes,
		dir: dir, ownDir: ownDir,
	}, nil
}

// Close shuts both engines down and removes owned disk state. It returns
// every error among them; the M3R engine's is its transport's close.
func (c *Cluster) Close() error {
	err := errors.Join(c.M3R.Close(), c.Hadoop.Close())
	if c.ownDir {
		err = errors.Join(err, os.RemoveAll(c.dir))
	}
	return err
}
