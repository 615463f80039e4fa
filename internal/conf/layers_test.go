package conf_test

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/wio"
)

// node is one configuration of a clone tree beside the plain map it must
// equal.
type node struct {
	c     *conf.Configuration
	model map[string]string
	depth int
}

// encodeModel is what WriteTo must produce for m: the count, then every
// key and value in key order.
func encodeModel(t *testing.T, m map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wio.NewWriter(&buf)
	w.WriteUvarint(uint64(len(m)))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		w.WriteString(k)
		w.WriteString(m[k])
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeConf(t *testing.T, c *conf.Configuration) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wio.NewWriter(&buf)
	if err := c.WriteTo(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkNode compares every reader of n's configuration with its model.
func checkNode(t *testing.T, step string, i int, n *node, keys []string) {
	t.Helper()
	for _, k := range keys {
		v, ok := n.model[k]
		if got := n.c.Get(k); got != v {
			t.Fatalf("%s: node %d Get(%s) = %q, want %q", step, i, k, got, v)
		}
		if got := n.c.Has(k); got != ok {
			t.Fatalf("%s: node %d Has(%s) = %v, want %v", step, i, k, got, ok)
		}
	}
	if got := n.c.Len(); got != len(n.model) {
		t.Fatalf("%s: node %d Len = %d, want %d", step, i, got, len(n.model))
	}
	if got, want := n.c.Names(), slices.Sorted(maps.Keys(n.model)); !slices.Equal(got, want) {
		t.Fatalf("%s: node %d Names = %v, want %v", step, i, got, want)
	}
	if got, want := encodeConf(t, n.c), encodeModel(t, n.model); !bytes.Equal(got, want) {
		t.Fatalf("%s: node %d WriteTo = %x, want %x", step, i, got, want)
	}
}

// TestLayersMatchAMap runs random Set, Unset, Clone, SetDefaults and
// ReadFields sequences over a tree of clones at least three levels deep and
// checks, after every step, every node's Get, Has, Len, Names and WriteTo
// bytes against a plain map: a write on either side of a clone, before or
// after it, stays on that side.
func TestLayersMatchAMap(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "f"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := []*node{{c: conf.New(), model: map[string]string{}}}
		deepest := 0
		clone := func(i int) {
			nodes = append(nodes, &node{c: nodes[i].c.Clone(), model: maps.Clone(nodes[i].model), depth: nodes[i].depth + 1})
			if nodes[len(nodes)-1].depth > nodes[deepest].depth {
				deepest = len(nodes) - 1
			}
		}
		for step := range 80 {
			i := rng.Intn(len(nodes))
			n := nodes[i]
			k := keys[rng.Intn(len(keys))]
			var op string
			switch r := rng.Intn(10); {
			case step < 12 && step%4 == 3:
				// The spine: a chain of clones, each taken after writes.
				i = deepest
				op = fmt.Sprintf("Clone(%d)", i)
				clone(i)
			case r < 4:
				v := fmt.Sprint(step)
				op = fmt.Sprintf("Set(%d, %s=%s)", i, k, v)
				n.c.Set(k, v)
				n.model[k] = v
			case r < 6:
				op = fmt.Sprintf("Unset(%d, %s)", i, k)
				n.c.Unset(k)
				delete(n.model, k)
			case r < 8 && len(nodes) < 16:
				op = fmt.Sprintf("Clone(%d)", i)
				clone(i)
			case r < 9 && len(nodes) > 1:
				j := (i + 1 + rng.Intn(len(nodes)-1)) % len(nodes)
				op = fmt.Sprintf("SetDefaults(%d, %d)", i, j)
				n.c.SetDefaults(nodes[j].c)
				for k, v := range nodes[j].model {
					if _, ok := n.model[k]; !ok {
						n.model[k] = v
					}
				}
			default:
				j := rng.Intn(len(nodes))
				op = fmt.Sprintf("ReadFields(%d, %d)", i, j)
				in := encodeConf(t, nodes[j].c)
				if err := n.c.ReadFields(wio.NewReader(bytes.NewReader(in))); err != nil {
					t.Fatal(err)
				}
				n.model = maps.Clone(nodes[j].model)
			}
			label := fmt.Sprintf("seed %d step %d %s", seed, step, op)
			for i, n := range nodes {
				checkNode(t, label, i, n, keys)
			}
		}
		if depth := nodes[deepest].depth; depth < 3 {
			t.Fatalf("the clone tree is %d levels deep, want at least 3", depth)
		}
	}
}

// TestCloneWhileWriting: eight goroutines clone a job conf and read their
// clones while another Sets and Unsets on the job conf. Every clone equals
// some state the job conf held, and what a goroutine writes to its clone
// never reaches the job conf.
func TestCloneWhileWriting(t *testing.T) {
	job := conf.New()
	for i := range 40 {
		job.Set(fmt.Sprintf("mapred.property.%02d", i), fmt.Sprint(i))
	}
	// The writer's script, and the state after each of its steps.
	const steps = 400
	model := map[string]string{}
	for _, k := range job.Names() {
		model[k] = job.Get(k)
	}
	render := func(m map[string]string) string {
		var b bytes.Buffer
		for _, k := range slices.Sorted(maps.Keys(m)) {
			fmt.Fprintf(&b, "%s=%s\n", k, m[k])
		}
		return b.String()
	}
	states := map[string]bool{render(model): true}
	type write struct {
		key, value string
		unset      bool
	}
	script := make([]write, steps)
	for i := range script {
		w := write{key: fmt.Sprintf("mapred.property.%02d", (i*7)%50), value: fmt.Sprint("v", i), unset: i%3 == 2}
		if w.unset {
			delete(model, w.key)
		} else {
			model[w.key] = w.value
		}
		script[i] = w
		states[render(model)] = true
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan string, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					if n > 0 {
						return
					}
				default:
				}
				c := job.Clone()
				if got := c.String(); !states[got] {
					errs <- fmt.Sprintf("goroutine %d: a clone held a state the job conf never did:\n%s", g, got)
					return
				}
				if c.Len() != len(c.Names()) {
					errs <- fmt.Sprintf("goroutine %d: a clone's Len and Names disagree", g)
					return
				}
				c.Set("clone.own", fmt.Sprint(g))
				c.Unset("mapred.property.00")
			}
		}()
	}
	for _, w := range script {
		if w.unset {
			job.Unset(w.key)
		} else {
			job.Set(w.key, w.value)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := job.String(); got != render(model) {
		t.Errorf("the job conf after its script:\n%s\nwant\n%s", got, render(model))
	}
}

// TestCloneCopiesNoMap: a clone copies the source's writes into the shared
// frozen layer once; every clone after that, and a clone of a clone, is one
// small allocation however many properties there are.
func TestCloneCopiesNoMap(t *testing.T) {
	var allocs []float64
	for _, n := range []int{10, 1000} {
		c := conf.New()
		for i := range n {
			c.SetInt(fmt.Sprint("mapred.property.", i), i)
		}
		c.Clone()
		a := testing.AllocsPerRun(100, func() { c.Clone().Clone() })
		allocs = append(allocs, a)
		if a > 2 {
			t.Errorf("%d properties: a clone of a clone allocates %v times, want 2", n, a)
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("a clone allocates %v times at 10 properties, %v at 1000", allocs[0], allocs[1])
	}
}

// TestCloneJobWith: the copy holds the source's properties, the defaults it
// leaves unset and the pairs written over both, the source is not written
// to, and the copy's first clone copies no map.
func TestCloneJobWith(t *testing.T) {
	src := conf.NewJob()
	src.Set("a", "src")
	src.Set("b", "src")
	src.Clone()
	src.Set("c", "src") // an own write since the last clone
	defaults := conf.New()
	defaults.Set("b", "default")
	defaults.Set("d", "default")
	got := src.CloneJobWith(defaults, "c", "kv", "e", "kv")
	for k, want := range map[string]string{"a": "src", "b": "src", "c": "kv", "d": "default", "e": "kv"} {
		if v := got.Get(k); v != want {
			t.Errorf("%s = %q, want %q", k, v, want)
		}
	}
	if src.Has("d") || src.Has("e") || src.Get("c") != "src" {
		t.Errorf("the source was written to: d %q, e %q, c %q", src.Get("d"), src.Get("e"), src.Get("c"))
	}
	var clone conf.JobClone
	if a := testing.AllocsPerRun(100, func() { clone = conf.JobClone{}; clone.Of(got) }); a != 0 {
		t.Errorf("a clone of the copy allocates %v times, want 0", a)
	}
}
