package main

import (
	"fmt"
	"os"
	"path/filepath"

	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/hadoop"
	"m3r/internal/m3r"
	"m3r/internal/sim"
)

const (
	places      = 4
	hdfsBlock   = 256 << 10 // unless the workload names its own
	replication = 2
)

// cluster is the system under test: one simulated HDFS with the Hadoop
// engine and the M3R engine over it, each with its own statistics sink so
// a counter can be attributed to the engine that moved it.
type cluster struct {
	dir    string
	fs     *dfs.HDFS
	hadoop *hadoop.Engine
	m3r    *m3r.Engine
	hStats *sim.Stats
	mStats *sim.Stats

	// hEng and mEng are what the workloads submit to: the engines
	// themselves, or their traced wrappers in a traced run.
	hEng engine.Engine
	mEng engine.Engine
}

// newCluster builds a 4-place cluster under dir with HDFS blocks of
// blockBytes. A positive poolBytes is the M3R engine pool and cache budget
// per place. With a tracer, each engine sees the filesystem through a
// wrapper that records a span per file handle, and jobs are submitted
// through a wrapper that records a span per Submit.
func newCluster(dir string, blockBytes, poolBytes int64, cost *sim.CostModel, tr *tracer) (*cluster, error) {
	// The Hadoop engine makes a directory per job under its local
	// directory; marked, each job's task files get a block group of their
	// own (see markTopDir), as do the HDFS root and the local directory
	// under dir.
	local := filepath.Join(dir, "local")
	if err := os.MkdirAll(local, 0o755); err != nil {
		return nil, err
	}
	markTopDir(dir)
	markTopDir(local)
	hosts := make([]string, places)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("node%d", i)
	}
	fs, err := dfs.NewHDFS(dfs.HDFSOptions{
		Root:        filepath.Join(dir, "hdfs"),
		Hosts:       hosts,
		BlockSize:   blockBytes,
		Replication: replication,
		Cost:        cost,
	})
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, fs: fs, hStats: sim.NewStats(), mStats: sim.NewStats()}
	var hFS, mFS dfs.FileSystem = fs, fs
	if tr != nil {
		hFS = &tracedFS{FileSystem: fs, tr: tr, engine: "hadoop"}
		mFS = &tracedFS{FileSystem: fs, tr: tr, engine: "m3r"}
	}
	c.hadoop, err = hadoop.New(hadoop.Options{
		FS:              hFS,
		Nodes:           hosts,
		MapSlotsPerNode: 1,
		LocalDir:        local,
		Stats:           c.hStats,
		Cost:            cost,
	})
	if err != nil {
		return nil, err
	}
	// Negative budgets force "no pool" even if an environment default were
	// set; main refuses to start with one set anyway.
	pool := int64(-1)
	if poolBytes > 0 {
		pool = poolBytes
	}
	c.m3r, err = m3r.New(m3r.Options{
		Backing:            mFS,
		Places:             places,
		WorkersPerPlace:    1,
		ShuffleBudgetBytes: pool,
		CacheBudgetBytes:   pool,
		Stats:              c.mStats,
		Cost:               cost,
	})
	if err != nil {
		c.hadoop.Close()
		return nil, err
	}
	c.hEng, c.mEng = c.hadoop, c.m3r
	if tr != nil {
		c.hEng = &tracedEngine{Engine: c.hadoop, tr: tr, stats: c.hStats}
		c.mEng = &tracedEngine{Engine: c.m3r, tr: tr, stats: c.mStats}
	}
	return c, nil
}

// close shuts both engines down and removes the cluster's disk state.
func (c *cluster) close() error {
	err := c.m3r.Close()
	if herr := c.hadoop.Close(); err == nil {
		err = herr
	}
	if rerr := os.RemoveAll(c.dir); err == nil {
		err = rerr
	}
	return err
}
