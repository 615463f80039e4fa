package integration_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/lab"
	"m3r/internal/mapred"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// seenTaskIDs collects the attempt ids idMapper and idReducer run as, by
// the job conf's "test.ids" key.
var seenTaskIDs sync.Map // key -> *taskIDs

type taskIDs struct {
	mu  sync.Mutex
	ids []string
}

func recordTaskID(job *conf.JobConf, rep mapred.Reporter) {
	v, _ := seenTaskIDs.LoadOrStore(job.Get("test.ids"), new(taskIDs))
	s := v.(*taskIDs)
	s.mu.Lock()
	s.ids = append(s.ids, rep.(*engine.TaskContext).TaskID)
	s.mu.Unlock()
}

// idMapper records its attempt's id at its first record, and emits each
// line with a count of one.
type idMapper struct {
	mapred.Base
	job  *conf.JobConf
	seen bool
}

func (m *idMapper) Configure(job *conf.JobConf) { m.job = job }

func (m *idMapper) Map(_, value wio.Writable, out mapred.OutputCollector, rep mapred.Reporter) error {
	if !m.seen {
		m.seen = true
		recordTaskID(m.job, rep)
	}
	return out.Collect(types.NewText(value.(*types.Text).String()), types.NewInt(1))
}

// idReducer records its attempt's id at its first group, and counts
// nothing.
type idReducer struct {
	mapred.Base
	job  *conf.JobConf
	seen bool
}

func (r *idReducer) Configure(job *conf.JobConf) { r.job = job }

func (r *idReducer) Reduce(_ wio.Writable, values mapred.ValueIterator, _ mapred.OutputCollector, rep mapred.Reporter) error {
	if !r.seen {
		r.seen = true
		recordTaskID(r.job, rep)
	}
	for {
		if _, ok := values.Next(); !ok {
			return nil
		}
	}
}

func init() {
	mapred.RegisterMapper("test.IDMapper", func() mapred.Mapper { return &idMapper{} })
	mapred.RegisterReducer("test.IDReducer", func() mapred.Reducer { return &idReducer{} })
}

// TestTaskIDsAreHadoops runs a job of ten map tasks and ten reduce tasks,
// each with input, on both engines, and holds the attempt id every task ran
// as to fmt.Sprintf of Hadoop's format for the job the report names: the
// ids the job laid out for its first attempts, at indexes 0 through 9.
func TestTaskIDsAreHadoops(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2, ShuffleBudgetBytes: -1})
	for i := range 10 {
		var lines []byte
		for k := range 40 {
			lines = fmt.Appendf(lines, "w%d-%d\n", i, k)
		}
		if err := dfs.WriteFile(c.FS, fmt.Sprintf("/data/ids/f%02d", i), lines); err != nil {
			t.Fatal(err)
		}
	}
	for _, eng := range []engine.Engine{c.M3R, c.Hadoop} {
		job := conf.NewJob()
		job.AddInputPath("/data/ids")
		job.SetOutputPath("/out/ids-" + eng.Name())
		job.SetMapperClass("test.IDMapper")
		job.SetReducerClass("test.IDReducer")
		job.SetNumReduceTasks(10)
		job.SetMapOutputKeyClass(types.TextName)
		job.SetMapOutputValueClass(types.IntName)
		job.SetOutputKeyClass(types.TextName)
		job.SetOutputValueClass(types.IntName)
		key := t.Name() + eng.Name()
		seenTaskIDs.Delete(key) // a repeated run (-count) starts afresh
		job.Set("test.ids", key)
		rep, err := eng.Submit(job)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		var want []string
		for _, kind := range []string{"m", "r"} {
			for i := range 10 {
				want = append(want, fmt.Sprintf("attempt_%s_%s_%06d_%d", rep.JobID, kind, i, 0))
			}
		}
		v, _ := seenTaskIDs.Load(key)
		got := slices.Sorted(slices.Values(v.(*taskIDs).ids))
		if !slices.Equal(got, want) {
			t.Errorf("%s: tasks ran as\n%v\nwant\n%v", eng.Name(), got, want)
		}
	}
}
