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
	"m3r/internal/m3r"
	"m3r/internal/sim"
	"m3r/internal/x10"
)

// cluster bundles a simulated HDFS with both engines over the same nodes.
type cluster struct {
	fs     *dfs.HDFS
	hadoop *hadoop.Engine
	m3r    *m3r.Engine
	stats  *sim.Stats
}

// newCluster builds a nodes-wide cluster rooted in a test temp dir, with
// all modelled delays disabled (tests assert on mechanism via stats).
func newCluster(t *testing.T, nodes int) *cluster {
	t.Helper()
	return newClusterPool(t, nodes, 0)
}

// newClusterPool is newCluster with an explicit engine-scoped shuffle pool
// on the M3R engine (m3r.Options.ShuffleBudgetBytes; 0 inherits the
// environment default, negative forces an unlimited pool).
func newClusterPool(t *testing.T, nodes int, poolBytes int64) *cluster {
	t.Helper()
	return newClusterOpts(t, nodes, poolBytes, false)
}

// newClusterFallback is newCluster with the hadoop engine wired as the m3r
// engine's fallback (m3r.Options.Fallback), for integrated-mode failover.
func newClusterFallback(t *testing.T, nodes int) *cluster {
	t.Helper()
	return newClusterOpts(t, nodes, 0, true)
}

// newClusterTransport is newCluster with an explicit place transport on
// the M3R engine (m3r.Options.Transport) — the TCP-loopback equivalence
// tests route shuffle frames through in-process frame servers with it.
func newClusterTransport(t *testing.T, nodes int, tr x10.Transport) *cluster {
	t.Helper()
	return newClusterCfg(t, nodes, clusterConfig{transport: tr})
}

func newClusterOpts(t *testing.T, nodes int, poolBytes int64, fallback bool) *cluster {
	t.Helper()
	return newClusterCfg(t, nodes, clusterConfig{poolBytes: poolBytes, fallback: fallback})
}

// clusterConfig is the full knob set behind the newCluster* helpers.
type clusterConfig struct {
	poolBytes int64
	// cacheBudget puts the M3R engine's inter-job cache under a per-place
	// byte ceiling (m3r.Options.CacheBudgetBytes); 0 inherits the
	// conf.DefaultsEnv value of conf.KeyM3RCacheBudget, negative forces the
	// unbounded cache.
	cacheBudget int64
	fallback    bool
	transport   x10.Transport
	// wrap, when set, stands between both engines and the HDFS (the cluster's
	// own fs field stays the bare one): a fault-injecting filesystem.
	wrap func(dfs.FileSystem) dfs.FileSystem
}

func newClusterCfg(t *testing.T, nodes int, cc clusterConfig) *cluster {
	t.Helper()
	stats := sim.NewStats()
	cost := sim.Zero()
	// Host names must match the x10 runtime's ("node0"...).
	hosts := make([]string, nodes)
	for i := range hosts {
		hosts[i] = nodeName(i)
	}
	fs, err := dfs.NewHDFS(dfs.HDFSOptions{
		Root:        t.TempDir(),
		Hosts:       hosts,
		BlockSize:   64 << 10,
		Replication: 1,
		Stats:       stats,
		Cost:        cost,
	})
	if err != nil {
		t.Fatalf("hdfs: %v", err)
	}
	var engineFS dfs.FileSystem = fs
	if cc.wrap != nil {
		engineFS = cc.wrap(fs)
	}
	he, err := hadoop.New(hadoop.Options{
		FS:       engineFS,
		Nodes:    hosts,
		LocalDir: t.TempDir(),
		Stats:    stats,
		Cost:     cost,
	})
	if err != nil {
		t.Fatalf("hadoop engine: %v", err)
	}
	mopts := m3r.Options{
		Backing:            engineFS,
		Places:             nodes,
		WorkersPerPlace:    2,
		ShuffleBudgetBytes: cc.poolBytes,
		CacheBudgetBytes:   cc.cacheBudget,
		Transport:          cc.transport,
		Stats:              stats,
		Cost:               cost,
	}
	if cc.fallback {
		mopts.Fallback = he
	}
	me, err := m3r.New(mopts)
	if err != nil {
		t.Fatalf("m3r engine: %v", err)
	}
	t.Cleanup(func() {
		he.Close()
		me.Close()
	})
	return &cluster{fs: fs, hadoop: he, m3r: me, stats: stats}
}

func nodeName(i int) string {
	return "node" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
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
