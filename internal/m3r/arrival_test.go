package m3r

import (
	"fmt"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/engine"
	"m3r/internal/mapred"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// keepingReducer holds on to every key and value it is handed, with the
// bytes each marshalled to then, and checks that each value it is handed
// belongs to its group: value v was delivered under key word(v % perTask %
// keys).
type keepingReducer struct {
	perTask, keys int
	kept          []wio.Writable
	keptAs        []string
	misplaced     int
}

func (*keepingReducer) Configure(*conf.JobConf) {}
func (*keepingReducer) Close() error            { return nil }

func (r *keepingReducer) hold(w wio.Writable) {
	b, err := wio.Marshal(w)
	if err != nil {
		panic(err)
	}
	r.kept, r.keptAs = append(r.kept, w), append(r.keptAs, string(b))
}

func (r *keepingReducer) Reduce(key wio.Writable, values mapred.ValueIterator, _ mapred.OutputCollector, _ *engine.TaskContext) error {
	r.hold(key)
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		if want := arrivalKey(int(v.(*types.IntWritable).V), r.perTask, r.keys); key.(*types.Text).String() != want {
			r.misplaced++
		}
		r.hold(v)
	}
	return nil
}

func arrivalKey(v, perTask, keys int) string { return fmt.Sprintf("word%03d", v%perTask%keys) }

// TestArrivedObjectsAreTheReducers: the unbudgeted shuffle's arrival decodes
// a remote stream into objects from slabs, and a reducer may keep what it is
// handed (§3.2). A reducer that keeps every key and value across all its
// groups holds objects that are pairwise distinct and, after one more map
// task's stream has arrived through the pooled streams and decoders, still
// marshal as they did when they were handed out.
func TestArrivedObjectsAreTheReducers(t *testing.T) {
	const tasks, perTask, keys = 3, 1000, 40
	x := newRemoteExec(t, &tamperTransport{tamper: func(_ int, f []byte) []byte { return f }})
	maps := layOutMapTasks(x, tasks+1)
	ship := func(src int) {
		t.Helper()
		sc := x.newShuffleCollector(&maps[src], engine.NewTaskContext(x.Conf, "map", nil))
		for i := 0; i < perTask; i++ {
			v := src*perTask + i
			if err := sc.deliver(1, types.NewText(arrivalKey(v, perTask, keys)), types.NewInt(int32(v)), true); err != nil {
				t.Fatal(err)
			}
		}
		if err := sc.flush(); err != nil {
			t.Fatal(err)
		}
	}
	for src := 0; src < tasks; src++ {
		ship(src)
	}
	red := &keepingReducer{perTask: perTask, keys: keys}
	discard := mapred.CollectorFunc(func(_, _ wio.Writable) error { return nil })
	x.layOutMerges() // the barrier's, as jobExec.run lays them out
	if err := x.reducePairs(engine.NewTaskContext(x.Conf, "reduce", nil), 1, red, discard); err != nil {
		t.Fatal(err)
	}
	if want := keys + tasks*perTask; len(red.kept) != want {
		t.Fatalf("the reducer was handed %d objects, want %d keys and values", len(red.kept), want)
	}
	if red.misplaced != 0 {
		t.Fatalf("%d values were handed out under another key than they were delivered with", red.misplaced)
	}
	ship(tasks)
	distinct := make(map[wio.Writable]bool, len(red.kept))
	for i, w := range red.kept {
		if distinct[w] {
			t.Fatalf("object %d was handed out twice", i)
		}
		distinct[w] = true
		if b, _ := wio.Marshal(w); string(b) != red.keptAs[i] {
			t.Fatalf("object %d was %x when handed out and is %x now", i, red.keptAs[i], b)
		}
	}
}
