package m3r

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"m3r/internal/engine"
	"m3r/internal/matrix"
	"m3r/internal/sysml"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// oneByOne writes its doubles one WriteFloat64 at a time behind a uvarint
// count, and reads them back with one ReadFloat64s: the bytes are those of
// a bulk write, so a kept run cuts its body from the run's slab all the
// same. A non-zero claim is written as the count instead of len(V), which
// makes a record that ends short of what it claims.
type oneByOne struct {
	V     []float64
	claim uint64
}

const oneByOneName = "test.m3r.OneByOneFloats"

func init() { wio.RegisterNew[oneByOne](oneByOneName) }

func (o *oneByOne) WriteTo(w *wio.Writer) error {
	n := uint64(len(o.V))
	if o.claim != 0 {
		n = o.claim
	}
	if err := w.WriteUvarint(n); err != nil {
		return err
	}
	for _, v := range o.V {
		if err := w.WriteFloat64(v); err != nil {
			return err
		}
	}
	return nil
}

func (o *oneByOne) ReadFields(r *wio.Reader) error {
	n, err := r.ReadUvarint()
	if err != nil {
		return err
	}
	o.V, err = r.ReadFloat64s(o.V, n)
	return err
}

// slabNotes records where every transient slab lies as wio starts it.
type slabNotes struct {
	mu    sync.Mutex
	spans [][2]uintptr
}

func (s *slabNotes) note(base unsafe.Pointer, size uintptr) {
	s.mu.Lock()
	s.spans = append(s.spans, [2]uintptr{uintptr(base), uintptr(base) + size})
	s.mu.Unlock()
}

func (s *slabNotes) holds(p uintptr) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range s.spans {
		if p >= sp[0] && p < sp[1] {
			return true
		}
	}
	return false
}

// floatBody is the float body a value of the kept run holds.
func floatBody(t *testing.T, v wio.Writable) []float64 {
	t.Helper()
	switch v := v.(type) {
	case *sysml.TaggedBlock:
		if v.Sparse {
			return v.S.V
		}
		return v.B.V
	case *oneByOne:
		return v.V
	}
	t.Fatalf("no float body in a %T", v)
	return nil
}

func addr(b []float64) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

// keptRun is the float bodies of one run, in decode order.
type keptRun struct {
	task   int
	bodies [][]float64
}

func (r keptRun) span() (lo, hi uintptr) {
	last := r.bodies[len(r.bodies)-1]
	return addr(r.bodies[0]), addr(last) + 8*uintptr(len(last))
}

// TestKeptRunSlabs: a cloning sink decodes each run of its output into one
// slab a class and one float slab, which its cache entry alone holds. Two
// tasks each collect a run of TaggedBlocks, dense and sparse mixed under
// one class, then — the classes changing — a run of oneByOne values, whose
// doubles were written one at a time. In each run every float body lies in
// one slab, cut in order with its capacity clipped, so that an append to it
// reallocates and leaves its slab-mates be; no object or body lies in a
// slab of objects that die with the job (wio.SetTransientSlabHook); no two
// runs, of one task or of two, share a slab; and the entries read as
// collected. A run whose last record claims 2^26 doubles and holds three
// fails its task without allocating for the claim.
func TestKeptRunSlabs(t *testing.T) {
	var notes slabNotes
	wio.SetTransientSlabHook(notes.note)
	defer wio.SetTransientSlabHook(nil)
	// Empty the pool of shared slabs, so that any a sink took from would
	// be started under the hook.
	runtime.GC()
	runtime.GC()

	e, _ := scaffoldEngine(t)
	x := openExec(t, e, scaffoldJob("/kept/in", "/kept/temp_out", 0))
	const tasks = 2
	x.layOutSinks(tasks + 1)
	ctx := engine.NewTaskContext(x.Conf, "attempt_kept", nil)
	var runs []keptRun
	for task := range tasks {
		var want []wio.Pair
		s, err := x.openTaskSink(ctx, 0, task, false)
		if err != nil {
			t.Fatal(err)
		}
		s.records = &ctx.Cells.MapOutputRecords
		collect := func(k, v wio.Writable) {
			t.Helper()
			want = append(want, wio.Pair{Key: wio.MustClone(k), Value: wio.MustClone(v)})
			if err := s.Collect(k, v); err != nil {
				t.Fatal(err)
			}
		}
		// The sink serializes at Collect: one key and one value object
		// serve every pair.
		key, val := matrix.NewBlockKey(0, int32(task)), new(sysml.TaggedBlock)
		for i := range 24 {
			b := sysml.RandomBlock(int32(1+i%5), 4, int64(100*task+i), 0.5)
			key.Row = int32(i)
			*val = sysml.TaggedBlock{Tag: byte(i % 3), B: *b}
			if i%3 == 0 {
				*val = sysml.TaggedBlock{Tag: 1, Sparse: true, S: *sysml.Sparsify(b)}
			}
			collect(key, val)
		}
		one := new(oneByOne)
		for i := range 6 {
			one.V = one.V[:0]
			for j := range i + 1 {
				one.V = append(one.V, float64(task)+float64(i)/8+float64(j))
			}
			collect(types.NewInt(int32(i)), one)
		}
		if err := s.flush(); err != nil {
			t.Fatal(err)
		}
		got, ok, err := e.Cache().PathPairs(x.sinks[task].path)
		if err != nil || !ok {
			t.Fatalf("task %d: entry %v, %v", task, ok, err)
		}
		if len(got) != len(want) {
			t.Fatalf("task %d: %d pairs cached, %d collected", task, len(got), len(want))
		}
		for i, p := range got {
			if !wio.Equal(p.Key, want[i].Key) || !wio.Equal(p.Value, want[i].Value) {
				t.Fatalf("task %d pair %d: cached %v/%v, collected %v/%v", task, i, p.Key, p.Value, want[i].Key, want[i].Value)
			}
			for _, o := range []wio.Writable{p.Key, p.Value} {
				if notes.holds(uintptr(reflect.ValueOf(o).UnsafePointer())) {
					t.Errorf("task %d pair %d: a %T lies in a transient slab", task, i, o)
				}
			}
			if i == 0 || i == 24 {
				runs = append(runs, keptRun{task: task})
			}
			r := &runs[len(runs)-1]
			r.bodies = append(r.bodies, floatBody(t, p.Value))
		}
	}

	for ri, r := range runs {
		for i, b := range r.bodies {
			if len(b) == 0 || cap(b) != len(b) {
				t.Fatalf("task %d run %d body %d: len %d cap %d, want a non-empty body with its capacity clipped", r.task, ri, i, len(b), cap(b))
			}
			if notes.holds(addr(b)) {
				t.Errorf("task %d run %d body %d lies in a transient slab", r.task, ri, i)
			}
			if i == 0 {
				continue
			}
			prev := r.bodies[i-1]
			if addr(b) != addr(prev)+8*uintptr(len(prev)) {
				t.Errorf("task %d run %d: body %d does not follow body %d in one slab", r.task, ri, i, i-1)
			}
			first := b[0]
			grown := append(prev, math.Pi)
			if addr(grown) == addr(prev) || b[0] != first {
				t.Errorf("task %d run %d: an append to body %d ran into body %d", r.task, ri, i-1, i)
			}
		}
	}
	// A slab carried from one run to the next would go on where the last
	// run's bodies ended, inside the slab: no run starts in another's span.
	for i, a := range runs {
		lo, hi := a.span()
		for j, b := range runs {
			if i == j {
				continue
			}
			if at, _ := b.span(); at >= lo && at <= hi {
				t.Errorf("run %d (task %d) starts inside run %d's slab (task %d)", j, b.task, i, a.task)
			}
		}
	}

	// A truncated run: the last record claims 2^26 doubles and holds three.
	s, err := x.openTaskSink(ctx, 0, tasks, false)
	if err != nil {
		t.Fatal(err)
	}
	s.records = &ctx.Cells.MapOutputRecords
	for i := range 4 {
		v := &oneByOne{V: []float64{1, 2, 3}}
		if i == 3 {
			v.claim = 1 << 26
		}
		if err := s.Collect(types.NewInt(int32(i)), v); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = s.flush()
	runtime.ReadMemStats(&after)
	s.abort()
	if err == nil || !strings.Contains(err.Error(), "EOF") {
		t.Fatalf("a run cut short of its claim flushed with %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("a run cut short of its claim allocated %d bytes decoding", alloc)
	}
}
