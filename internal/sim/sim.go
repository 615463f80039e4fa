// Package sim centralizes the simulation substitutes for the hardware the
// paper ran on: a cost model for the cluster-bound latencies (JVM startup,
// heartbeat scheduling, network latency/bandwidth) and a statistics sink
// that both engines feed so tests and benchmarks can assert on *mechanism*
// (bytes moved, pairs cloned, cache hits) rather than only on wall time.
//
// Everything the engines do with data is real work (serialization, disk
// spills, merges); only the costs that cannot exist in a single-process
// reproduction are modelled here, and each knob can be set to zero.
package sim

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// CostModel holds the modelled costs. The defaults are scaled down roughly
// 1000x from the paper's 20-node GigE blade cluster so every experiment
// completes in seconds while preserving relative shape.
type CostModel struct {
	// JVMStartup is charged once per Hadoop task attempt (§1: "mappers and
	// reducers for each job are started in new JVMs").
	JVMStartup time.Duration
	// Heartbeat is the task-tracker polling interval; Hadoop tasks wait on
	// average half of it before being scheduled (§6.1: "overheads inherent
	// in Hadoop's task polling model").
	Heartbeat time.Duration
	// NetLatency is charged per remote transfer.
	NetLatency time.Duration
	// NetBytesPerSec is the modelled network bandwidth for remote
	// transfers (shuffle fetches, HDFS replication).
	NetBytesPerSec float64
	// DiskBytesPerSec adds a modelled penalty for bytes that the paper's
	// cluster would push through spinning disks; the real local-SSD/page
	// cache I/O still happens, this only adds the gap.
	DiskBytesPerSec float64
	// Sleep controls whether modelled delays are actually slept (true for
	// benchmarks measuring wall time) or only accounted (false for unit
	// tests, which assert on Stats instead).
	Sleep bool
}

// Default returns the scaled-down cost model used by the benchmarks.
func Default() *CostModel {
	return &CostModel{
		JVMStartup:      8 * time.Millisecond,
		Heartbeat:       5 * time.Millisecond,
		NetLatency:      200 * time.Microsecond,
		NetBytesPerSec:  512 << 20, // modelled GigE scaled up since all else is scaled down
		DiskBytesPerSec: 1 << 30,
		Sleep:           true,
	}
}

// Zero returns a cost model with every modelled delay disabled. Real work
// (serialization, file I/O) is unaffected.
func Zero() *CostModel {
	return &CostModel{Sleep: false}
}

// delay sleeps (when enabled) and accounts d into stats.
func (c *CostModel) delay(s *Stats, counter string, d time.Duration) {
	if d <= 0 {
		return
	}
	s.Add(counter, int64(d))
	s.Add(ModeledDelayNs, int64(d))
	if c.Sleep {
		time.Sleep(d)
	}
}

// ChargeJVMStart models one task-attempt process launch.
func (c *CostModel) ChargeJVMStart(s *Stats) {
	c.delay(s, JVMStartNs, c.JVMStartup)
}

// ChargeHeartbeat models one scheduler polling round.
func (c *CostModel) ChargeHeartbeat(s *Stats) {
	c.delay(s, HeartbeatNs, c.Heartbeat)
}

// ChargeNet models moving n bytes across the cluster network.
func (c *CostModel) ChargeNet(s *Stats, n int64) {
	d := c.NetLatency
	if c.NetBytesPerSec > 0 {
		d += time.Duration(float64(n) / c.NetBytesPerSec * float64(time.Second))
	}
	c.delay(s, NetDelayNs, d)
}

// ChargeDisk models pushing n bytes through cluster-class disks.
func (c *CostModel) ChargeDisk(s *Stats, n int64) {
	if c.DiskBytesPerSec <= 0 {
		return
	}
	c.delay(s, DiskDelayNs, time.Duration(float64(n)/c.DiskBytesPerSec*float64(time.Second)))
}

// Stats counter names.
const (
	RemoteBytes          = "remote.bytes"        // bytes serialized across places
	RemoteTransfers      = "remote.transfers"    // number of remote batches
	LocalPairs           = "local.pairs"         // pairs delivered without serialization
	DedupHits            = "dedup.hits"          // objects elided by the dedup encoder
	ClonedPairs          = "cloned.pairs"        // pairs cloned for mutation safety
	AliasedPairs         = "aliased.pairs"       // pairs aliased thanks to ImmutableOutput
	CacheHits            = "cache.hits"          // splits served from the KV cache
	CacheMisses          = "cache.misses"        // splits read from the filesystem
	CacheWrites          = "cache.writes"        // output blocks written to the cache
	SpillBytes           = "spill.bytes"         // bytes written to spill files (compressed when a codec is set)
	SpillRawBytes        = "spill.raw.bytes"     // raw record-format bytes of the same spills (ratio = bytes/raw)
	SpillFiles           = "spill.files"         // number of spill files
	EvictedRuns          = "evicted.runs"        // resident runs re-spilled largest-first
	ShuffleFetchBytes    = "shuffle.fetch.bytes" // reduce-side segment fetch bytes
	HDFSReadBytes        = "hdfs.read.bytes"
	HDFSWriteBytes       = "hdfs.write.bytes"
	TasksLaunched        = "tasks.launched"
	JobsKilled           = "jobs.killed"            // jobs cancelled by an explicit kill
	JobsDeadlineExceeded = "jobs.deadline.exceeded" // jobs cancelled by their deadline watchdog
	TaskRetries          = "task.retries"           // Hadoop-engine task attempts re-executed
	NetFrames            = "net.frames"             // frames shipped over a remote place transport
	NetBytes             = "net.bytes"              // payload bytes shipped over a remote place transport
	NetRedials           = "net.redials"            // transport connections re-established after an I/O error
	FailoverJobs         = "failover.jobs"          // M3R jobs resubmitted to the fallback engine
	ModeledDelayNs       = "modeled.delay.ns"
	JVMStartNs           = "modeled.jvmstart.ns"
	HeartbeatNs          = "modeled.heartbeat.ns"
	NetDelayNs           = "modeled.net.ns"
	DiskDelayNs          = "modeled.disk.ns"
)

// Stats is a concurrent named-counter sink. Add and Get sit on per-call
// paths (every HDFS read and write, every shipped frame), so finding a
// counter is one atomic load of an immutable table and takes no lock;
// only the first Add of a new name copies the table, under mu, and
// publishes the copy. A counter, once in a table, is in every later one.
type Stats struct {
	mu    sync.Mutex // serializes table replacement
	table atomic.Pointer[map[string]*atomic.Int64]
}

// NewStats returns an empty Stats.
func NewStats() *Stats { return new(Stats) }

// counters returns the current table, which is never modified.
func (s *Stats) counters() map[string]*atomic.Int64 {
	if t := s.table.Load(); t != nil {
		return *t
	}
	return nil
}

func (s *Stats) counter(name string) *atomic.Int64 {
	if c, ok := s.counters()[name]; ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.counters()
	if c, ok := old[name]; ok {
		return c
	}
	next := make(map[string]*atomic.Int64, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	c := new(atomic.Int64)
	next[name] = c
	s.table.Store(&next)
	return c
}

// Add increments counter name by n.
func (s *Stats) Add(name string, n int64) {
	if s == nil {
		return
	}
	s.counter(name).Add(n)
}

// Get returns the current value of counter name.
func (s *Stats) Get(name string) int64 {
	if s == nil {
		return 0
	}
	c, ok := s.counters()[name]
	if !ok {
		return 0
	}
	return c.Load()
}

// Reset zeroes every counter.
func (s *Stats) Reset() {
	for _, c := range s.counters() {
		c.Store(0)
	}
}

// Snapshot returns a copy of all counters.
func (s *Stats) Snapshot() map[string]int64 {
	if s == nil {
		return nil
	}
	m := s.counters()
	out := make(map[string]int64, len(m))
	for k, c := range m {
		out[k] = c.Load()
	}
	return out
}

// Names returns the sorted counter names present.
func (s *Stats) Names() []string {
	m := s.counters()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Delta returns after-before for every counter present in after.
func Delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
