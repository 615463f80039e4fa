package integration_test

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/lab"
	"m3r/internal/mapred"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// barrierProbe records, for one job, how many map tasks have closed and
// what each reducer saw of that when it was configured.
type barrierProbe struct {
	mapsStarted atomic.Int32
	mapsClosed  atomic.Int32
	failLast    bool // the slow task fails in Close instead of succeeding

	mu   sync.Mutex
	seen []int32 // mapsClosed at each reducer's Configure
}

var barrierProbes sync.Map // probe id -> *barrierProbe

var errInjectedClose = errors.New("injected map Close failure")

// barrierMapper tokenizes lines into (word, 1) pairs. The first task to be
// configured is slow to close, so the other places finish their map tasks
// long before it does, and then fails if its probe says so.
type barrierMapper struct {
	mapred.Base
	p    *barrierProbe
	slow bool
}

func (m *barrierMapper) Configure(job *conf.JobConf) {
	if v, ok := barrierProbes.Load(job.Get("test.barrier.id")); ok {
		m.p = v.(*barrierProbe)
		m.slow = m.p.mapsStarted.Add(1) == 1
	}
}

func (m *barrierMapper) Map(_, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	for _, tok := range strings.Fields(value.(*types.Text).String()) {
		if err := out.Collect(types.NewText(tok), types.NewInt(1)); err != nil {
			return err
		}
	}
	return nil
}

func (m *barrierMapper) Close() error {
	if m.p == nil {
		return nil
	}
	if m.slow {
		time.Sleep(20 * time.Millisecond)
		if m.p.failLast {
			return errInjectedClose
		}
	}
	m.p.mapsClosed.Add(1)
	return nil
}

// barrierReducer counts each group's values and records, at Configure, how
// many map tasks had closed.
type barrierReducer struct{ gateReducer }

func (r *barrierReducer) Configure(job *conf.JobConf) {
	if v, ok := barrierProbes.Load(job.Get("test.barrier.id")); ok {
		p := v.(*barrierProbe)
		p.mu.Lock()
		p.seen = append(p.seen, p.mapsClosed.Load())
		p.mu.Unlock()
	}
}

func init() {
	mapred.RegisterMapper("test.BarrierMapper", func() mapred.Mapper { return &barrierMapper{} })
	mapred.RegisterReducer("test.BarrierReducer", func() mapred.Reducer { return &barrierReducer{} })
}

// TestNoReducerBeforeEveryMapTask holds §5.1 on M3R: "no reducer is allowed
// to run until globally all shuffle messages have been sent". At 2 and 4
// places, unbudgeted and under a 1 MiB pool, every reducer is configured
// only after every map task has closed, even though one task at one place
// closes long after the others; and when that task fails, no reduce task is
// launched at any place and the pool, spill streams and HDFS readers are
// back at their baselines.
func TestNoReducerBeforeEveryMapTask(t *testing.T) {
	for _, places := range []int{2, 4} {
		for _, pool := range []struct {
			name  string
			bytes int64
		}{{"unbudgeted", -1}, {"pool1MiB", 1 << 20}} {
			t.Run(strconv.Itoa(places)+"places/"+pool.name, func(t *testing.T) {
				c := newCluster(t, lab.Options{Nodes: places, ShuffleBudgetBytes: pool.bytes})
				if err := wordcount.Generate(c.FS, "/data/O", 512<<10, 11); err != nil {
					t.Fatal(err)
				}
				streamBase, readerBase := spill.OpenStreamCount(), dfs.OpenReaderCount()
				for _, fail := range []bool{false, true} {
					id := t.Name() + "/ok"
					if fail {
						id = t.Name() + "/fail"
					}
					p := &barrierProbe{failLast: fail}
					barrierProbes.Store(id, p)
					defer barrierProbes.Delete(id)

					job := conf.NewJob()
					job.SetJobName("barrier")
					job.AddInputPath("/data/O")
					job.SetOutputPath("/out/" + id)
					job.SetMapperClass("test.BarrierMapper")
					job.SetReducerClass("test.BarrierReducer")
					job.SetNumReduceTasks(2 * places)
					job.SetMapOutputKeyClass(types.TextName)
					job.SetMapOutputValueClass(types.IntName)
					job.SetOutputKeyClass(types.TextName)
					job.SetOutputValueClass(types.IntName)
					job.Set("test.barrier.id", id)
					if pool.bytes < 0 {
						job.SetInt64(conf.KeyM3RShuffleBudget, 0)
					}
					launched0 := c.Stats.Get(sim.TasksLaunched)
					rep, err := c.M3R.Submit(job)
					maps := p.mapsStarted.Load()
					if maps < int32(places) {
						t.Fatalf("%d map tasks over %d places: the job must span every place", maps, places)
					}
					if !fail {
						if err != nil {
							t.Fatal(err)
						}
						if got := rep.Counters.Value(counters.JobGroup, counters.TotalLaunchedMaps); got != int64(maps) {
							t.Fatalf("TOTAL_LAUNCHED_MAPS %d, mappers configured %d", got, maps)
						}
						if len(p.seen) != 2*places {
							t.Fatalf("%d reducers configured, want %d", len(p.seen), 2*places)
						}
						for i, n := range p.seen {
							if n != maps {
								t.Errorf("reducer %d configured with %d of %d map tasks closed", i, n, maps)
							}
						}
					} else {
						if !errors.Is(err, errInjectedClose) {
							t.Fatalf("error = %v, want the injected Close failure", err)
						}
						if len(p.seen) != 0 {
							t.Errorf("%d reducers configured after a failed map task", len(p.seen))
						}
						if got := c.Stats.Get(sim.TasksLaunched) - launched0; got != int64(maps) {
							t.Errorf("%d tasks launched for %d map tasks: a reduce task was launched", got, maps)
						}
						assertNoJobDroppings(t, c.FS, "/out/"+id, false)
					}
					if held := c.M3R.ShufflePoolHeldBytes(); held != 0 {
						t.Errorf("shuffle pool holds %d bytes", held)
					}
					if got := spill.OpenStreamCount(); got != streamBase {
						t.Errorf("OpenStreamCount %d, baseline %d", got, streamBase)
					}
					if got := dfs.OpenReaderCount(); got != readerBase {
						t.Errorf("OpenReaderCount %d, baseline %d", got, readerBase)
					}
				}
			})
		}
	}
}
