package m3r

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/formats"
	"m3r/internal/mapred"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/sysml"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// unregisteredValue is a writable wio has no name for.
type unregisteredValue struct{ types.IntWritable }

// reusingEmitter emits a task's output through one set of objects it
// mutates after every Collect, as a Hadoop task may: a Text key and one
// value of each class, cycling Block (10 pairs: a run long enough for slabs
// of its own), SparseBlock, Text, BytesWritable and Block again (4), so the
// value class changes mid-output. It records wio.Clone of every pair as it
// was collected; with test.sink.unregistered it emits an unregisteredValue
// as its 13th pair.
type reusingEmitter struct {
	key    types.Text
	dense  *sysml.Block
	sparse *sysml.SparseBlock
	text   types.Text
	bytes  types.BytesWritable
	bad    bool
	n      int
	pairs  []wio.Pair
}

func newReusingEmitter(job *conf.JobConf) *reusingEmitter {
	dense := sysml.NewBlock(3, 4)
	for i := range dense.V {
		dense.V[i] = float64(i%5) * 0.5
	}
	return &reusingEmitter{
		dense:  dense,
		sparse: sysml.Sparsify(dense),
		text:   types.Text{B: make([]byte, 0, 32)},
		bytes:  types.BytesWritable{B: make([]byte, 0, 32)},
		bad:    job.GetBool("test.sink.unregistered", false),
	}
}

// emit collects count pairs named after what; what is a record of the
// task's input, so each task's first key is its own.
func (e *reusingEmitter) emit(what string, count int, out mapred.OutputCollector) error {
	for range count {
		e.key.Set(fmt.Sprintf("%s/%d", what, e.n))
		var v wio.Writable
		switch i := e.n % 18; {
		case e.bad && e.n == 12:
			v = &unregisteredValue{}
		case i < 10 || i >= 14:
			e.dense.V[e.n%len(e.dense.V)] = float64(e.n)
			v = e.dense
		case i == 10, i == 11:
			e.sparse.V[0] = float64(e.n)
			v = e.sparse
		case i == 12:
			e.text.Set(strings.Repeat("t", e.n%7+1))
			v = &e.text
		default:
			e.bytes.B = append(e.bytes.B[:0], byte(e.n), byte(e.n>>8), 0xAB)
			v = &e.bytes
		}
		if _, err := wio.NameOf(v); err == nil {
			e.pairs = append(e.pairs, wio.Pair{Key: wio.MustClone(&e.key), Value: wio.MustClone(v)})
		}
		if err := out.Collect(&e.key, v); err != nil {
			return err
		}
		e.n++
		// The producer's hands are back on its objects, in place: every
		// body the sink might alias is overwritten.
		copy(e.key.B, "XXXXXXXXXXXXXXXX")
		e.sparse.V[0] = -1
		for i := range e.text.B {
			e.text.B[i] = 'X'
		}
		for i := range e.bytes.B {
			e.bytes.B[i] = 0xFF
		}
		for i := range e.dense.V { // back to the pattern, undoing V[n%12] = n
			e.dense.V[i] = float64(i%5) * 0.5
		}
	}
	return nil
}

// sinkRecords holds what every reusingEmitter collected, by its first key.
var sinkRecords struct {
	sync.Mutex
	byFirstKey map[string][]wio.Pair
}

func (e *reusingEmitter) close() {
	if len(e.pairs) == 0 {
		return
	}
	sinkRecords.Lock()
	sinkRecords.byFirstKey[e.pairs[0].Key.(*types.Text).String()] = e.pairs
	sinkRecords.Unlock()
}

// reusingMapper emits 20 pairs per input line, reusing its objects.
type reusingMapper struct {
	mapred.Base
	e *reusingEmitter
}

func (m *reusingMapper) Configure(job *conf.JobConf) { m.e = newReusingEmitter(job) }

func (m *reusingMapper) Map(_, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	return m.e.emit(value.(*types.Text).String(), 20, out)
}

func (m *reusingMapper) Close() error { m.e.close(); return nil }

// reusingReducer emits 9 pairs per group, reusing its objects.
type reusingReducer struct {
	mapred.Base
	e *reusingEmitter
}

func (r *reusingReducer) Configure(job *conf.JobConf) { r.e = newReusingEmitter(job) }

func (r *reusingReducer) Reduce(key wio.Writable, _ mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	return r.e.emit(key.(*types.Text).String(), 9, out)
}

func (r *reusingReducer) Close() error { r.e.close(); return nil }

func init() {
	mapred.RegisterMapper("test.ReusingMapper", func() mapred.Mapper { return &reusingMapper{} })
	mapred.RegisterReducer("test.ReusingReducer", func() mapred.Reducer { return &reusingReducer{} })
}

// TestSinkClonesAtCollectTime: a task whose output is not ImmutableOutput
// may reuse and mutate its output objects as soon as Collect returns, and
// the cache entry still holds each pair as it was collected — equal to
// wio.Clone of it then — whether the task is a reducer or the mapper of a
// map-only job, the output temporary or a file, and the value class
// changing mid-output; with recycled spill chunks poisoned. An output class
// wio cannot name fails the task with an error naming it, and leaves no
// entry, no buffer out and the pool at zero.
func TestSinkClonesAtCollectTime(t *testing.T) {
	if !spill.PoisonRecycledBlocks.Load() {
		t.Fatal("recycled spill chunks are not poisoned")
	}
	backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range []string{"a\nb\n", "c\nd\ne\n"} {
		if err := dfs.WriteFile(backing, fmt.Sprintf("/in/f%d", i), []byte(text)); err != nil {
			t.Fatal(err)
		}
	}
	me, err := New(Options{Backing: backing, Places: 2, ShuffleBudgetBytes: -1, Stats: sim.NewStats()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { me.Close() })

	job := func(reducers int, out string, unregistered bool) *conf.JobConf {
		job := conf.NewJob()
		job.SetInputFormatClass(formats.TextInputFormatName)
		job.SetOutputFormatClass(formats.TextOutputFormatName)
		job.AddInputPath("/in")
		job.SetOutputPath(out)
		job.SetNumReduceTasks(reducers)
		job.SetOutputKeyClass(types.TextName)
		if reducers == 0 {
			job.SetMapperClass("test.ReusingMapper")
		} else {
			// Each line becomes a key of its own: one reduce group a line.
			job.SetMapperClass("test.SwapMapper")
			job.SetReducerClass("test.ReusingReducer")
			job.SetMapOutputKeyClass(types.TextName)
			job.SetMapOutputValueClass(types.LongName)
		}
		job.SetBool("test.sink.unregistered", unregistered)
		return job
	}
	kinds := []struct {
		name     string
		reducers int
	}{{"map-only", 0}, {"reduce", 2}}
	for _, tc := range kinds {
		for _, out := range []string{"/out/temp_" + tc.name, "/out/file_" + tc.name} {
			t.Run(tc.name+out, func(t *testing.T) {
				sinkRecords.Lock()
				sinkRecords.byFirstKey = make(map[string][]wio.Pair)
				sinkRecords.Unlock()
				rep, err := me.Submit(job(tc.reducers, out, false))
				if err != nil {
					t.Fatal(err)
				}
				records := 0
				for first, want := range sinkRecords.byFirstKey {
					records += len(want)
					found := false
					for i := 0; ; i++ {
						got, ok, err := me.Cache().PathPairs(fmt.Sprintf("%s/part-%05d", out, i))
						if err != nil {
							t.Fatalf("part %d: %v", i, err)
						}
						if !ok {
							break
						}
						if len(got) == 0 || got[0].Key.(*types.Text).String() != first {
							continue
						}
						found = true
						if !reflect.DeepEqual(got, want) {
							t.Errorf("part %d holds\n%v\nwant what was collected\n%v", i, got, want)
						}
					}
					if !found {
						t.Errorf("no cache entry starts with the task output that starts with %q", first)
					}
				}
				if records != 5*map[int]int{0: 20, 2: 9}[tc.reducers] {
					t.Fatalf("the tasks collected %d pairs, want 5 lines' worth", records)
				}
				// A reduce job's map side counts its local shuffle's clones too.
				if n := rep.Counters.Value(counters.M3RGroup, counters.ClonedPairs); n != int64(records) && tc.reducers == 0 || n < int64(records) {
					t.Errorf("CLONED_PAIRS %d, want %d", n, records)
				}
			})
		}
	}
	for _, tc := range kinds {
		for _, out := range []string{"/bad/temp_" + tc.name, "/bad/file_" + tc.name} {
			t.Run("unregistered/"+tc.name+out, func(t *testing.T) {
				sinkRecords.Lock()
				sinkRecords.byFirstKey = make(map[string][]wio.Pair)
				sinkRecords.Unlock()
				bufs := encodeBufsOut.Load()
				_, err := me.Submit(job(tc.reducers, out, true))
				if err == nil || !strings.Contains(err.Error(), "unregisteredValue") {
					t.Fatalf("error %v, want one that names the unregistered class", err)
				}
				for i := range 5 {
					if _, ok, _ := me.Cache().PathPairs(fmt.Sprintf("%s/part-%05d", out, i)); ok {
						t.Errorf("part %d has a cache entry", i)
					}
				}
				if backing.Exists(out) || me.CachingFS().Exists(out) {
					t.Errorf("the failed job left %s behind", out)
				}
				if got := encodeBufsOut.Load(); got != bufs {
					t.Errorf("encode buffers out %d, baseline %d", got, bufs)
				}
				if held := me.ShufflePoolHeldBytes(); held != 0 {
					t.Errorf("pool holds %d bytes after the failed job", held)
				}
			})
		}
	}
}

// swapMapper emits each line as a key, its offset as the value.
type swapMapper struct{ mapred.Base }

func (swapMapper) Map(key, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	return out.Collect(value, key)
}

func init() {
	mapred.RegisterMapper("test.SwapMapper", func() mapred.Mapper { return swapMapper{} })
}
