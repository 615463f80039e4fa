package wio_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"m3r/internal/matrix"
	"m3r/internal/spill"
	"m3r/internal/sysml"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// site makes n fresh objects of v's class out of v's bytes, the way one
// decode or clone site does; transient sites take them from the shared
// slabs.
type site struct {
	name      string
	transient bool
	make      func(v wio.Writable, n int) ([]wio.Writable, error)
}

// sites are every way a decoded or cloned object is made.
var sites = []site{
	{"CloneTransient", true, func(v wio.Writable, n int) ([]wio.Writable, error) { return clones(v, n, wio.CloneTransient) }},
	{"Clone", false, func(v wio.Writable, n int) ([]wio.Writable, error) { return clones(v, n, wio.Clone) }},
	{"PairDecoder", true, func(v wio.Writable, n int) ([]wio.Writable, error) { return pairDecode(v, n, false) }},
	{"PairDecoder kept", false, func(v wio.Writable, n int) ([]wio.Writable, error) { return pairDecode(v, n, true) }},
	{"Decoder", true, streamDecode},
}

func clones(v wio.Writable, n int, clone func(wio.Writable) (wio.Writable, error)) ([]wio.Writable, error) {
	out := make([]wio.Writable, n)
	for i := range out {
		var err error
		if out[i], err = clone(v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pairDecode decodes n records whose values are v through a
// spill.PairDecoder told their count, as an arrival's or a spilled block's.
func pairDecode(v wio.Writable, n int, kept bool) ([]wio.Writable, error) {
	pairs := make([]wio.Pair, n)
	for i := range pairs {
		pairs[i] = wio.Pair{Key: types.NewInt(int32(i)), Value: v}
	}
	recs, keyClass, valClass, _, err := spill.MarshalRun(pairs)
	if err != nil {
		return nil, err
	}
	d, err := spill.NewPairDecoder(keyClass, valClass, n, kept)
	if err != nil {
		return nil, err
	}
	out := make([]wio.Writable, n)
	for i, rec := range recs {
		p, err := d.Decode(rec)
		if err != nil {
			return nil, err
		}
		out[i] = p.Value
	}
	return out, nil
}

// streamDecode decodes a wio.Decoder stream of n copies of v.
func streamDecode(v wio.Writable, n int) ([]wio.Writable, error) {
	var buf bytes.Buffer
	enc := wio.NewEncoder(&buf, false)
	for range n {
		if err := enc.Encode(v); err != nil {
			return nil, err
		}
	}
	if err := enc.Close(); err != nil {
		return nil, err
	}
	d := wio.NewDecoder(&buf)
	out := make([]wio.Writable, n)
	for i := range out {
		var err error
		if out[i], err = d.Decode(); err != nil {
			return nil, err
		}
	}
	if _, err := d.Decode(); err != io.EOF {
		return nil, fmt.Errorf("after %d objects: %v, want the end of the stream", n, err)
	}
	return out, nil
}

// seqBlock is an r×c block whose elements are distinct and carry seed.
func seqBlock(r, c int32, seed float64) *sysml.Block {
	b := sysml.NewBlock(r, c)
	for i := range b.V {
		b.V[i] = seed + float64(i)/1024
	}
	return b
}

// referenceValues are the classes the record path decodes most, at the
// shapes that take each branch of a body's allocation: empty, short enough
// for the shared float slab, and longer than a cut of it.
func referenceValues() []wio.Writable {
	sparse := sysml.NewBlock(40, 40)
	for i := 0; i < 40; i += 3 {
		sparse.Set(int32(i), int32((7*i)%40), float64(i)+0.5)
	}
	return []wio.Writable{
		sysml.NewTagged(1, seqBlock(10, 1, 3)),
		sysml.NewTagged(0, seqBlock(100, 100, 5)),
		&sysml.TaggedBlock{Tag: 2, Sparse: true, S: *sysml.Sparsify(sparse)},
		sysml.NewBlock(0, 0),
		seqBlock(1, 1, 7),
		seqBlock(100, 1, 11),
		seqBlock(1, 1025, 13),
		matrix.NewBlockKey(3, -4),
		types.NewText(""),
		types.NewText("hello"),
		types.NewText(strings.Repeat("x", 300)),
		types.NewInt(math.MinInt32),
		types.NewInt(42),
	}
}

// TestTransientSitesMatchTheFactory: every object a decode or clone site
// makes, from shared slabs or not, is reflect.DeepEqual to what the class's
// factory and ReadFields make of the same bytes — the reference every
// decode site is held to — at short and long sites alike.
func TestTransientSitesMatchTheFactory(t *testing.T) {
	for _, v := range referenceValues() {
		name, err := wio.NameOf(v)
		if err != nil {
			t.Fatal(err)
		}
		factory, err := wio.Factory(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := wio.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		ref := factory()
		if err := wio.Unmarshal(b, ref); err != nil {
			t.Fatal(err)
		}
		for _, s := range sites {
			for _, n := range []int{1, 7, 40} {
				objs, err := s.make(v, n)
				if err != nil {
					t.Fatalf("%s through %s: %v", name, s.name, err)
				}
				for i, got := range objs {
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("%s %v through %s, object %d of %d: %#v, the factory's %#v", name, v, s.name, i, n, got, ref)
					}
				}
			}
		}
	}
}

// floatBody returns the float body of a decoded block, the one a transient
// site cuts from a shared slab.
func floatBody(w wio.Writable) *[]float64 {
	if tb, ok := w.(*sysml.TaggedBlock); ok {
		return &tb.B.V
	}
	return &w.(*sysml.Block).V
}

// TestTransientSlabMatesAreIsolated: objects and bodies cut from shared
// slabs behave as if each were its own allocation. Four goroutines make
// blocks at once through every transient site, so the shared slabs hand out
// interleaved; every body comes back capacity-clipped (cap == len); then
// each goroutine appends to half of its bodies and writes through the other
// half, and every object still reads as it did — the written ones as
// written. Under -race, bodies that overlapped would also be reported as
// racing.
func TestTransientSlabMatesAreIsolated(t *testing.T) {
	const goroutines, rounds = 4, 60
	var transient []site
	for _, s := range sites {
		if s.transient {
			transient = append(transient, s)
		}
	}
	type made struct {
		w    wio.Writable
		want []byte
	}
	out := make([][]made, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []made
			for r := range rounds {
				// Bodies of 1 to 60 doubles, so that cuts of many lengths
				// share each float slab and some slabs end short of a cut.
				b := seqBlock(1, int32(1+(g*rounds+r)%60), float64(1000*g+r))
				var v wio.Writable = b
				if r%2 == 1 {
					v = sysml.NewTagged(byte(g), b)
				}
				s := transient[r%len(transient)]
				objs, err := s.make(v, 1+r%9)
				if err != nil {
					t.Errorf("%s: %v", s.name, err)
					return
				}
				for _, w := range objs {
					if body := *floatBody(w); cap(body) != len(body) {
						t.Errorf("%s: a body of %d doubles has capacity %d", s.name, len(body), cap(body))
					}
					want, err := wio.Marshal(w)
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, made{w, want})
				}
			}
			for i := range mine {
				body := floatBody(mine[i].w)
				if i%2 == 0 {
					grown := append(*body, -1)
					grown[0] = -2 // a fresh array, or the object would change
					continue
				}
				for j := range *body {
					(*body)[j] = -(*body)[j] - 1
				}
				want, err := wio.Marshal(mine[i].w)
				if err != nil {
					t.Error(err)
					return
				}
				mine[i].want = want
			}
			out[g] = mine
		}()
	}
	wg.Wait()
	for g, mine := range out {
		for i, m := range mine {
			if got, err := wio.Marshal(m.w); err != nil || !bytes.Equal(got, m.want) {
				t.Fatalf("goroutine %d, object %d: reads %x, want %x (%v): a slab-mate's append or write ran into it", g, i, got, m.want, err)
			}
		}
	}
	if n := len(out[0]); n < 200 {
		t.Fatalf("%d objects a goroutine, want enough to fill several shared slabs", n)
	}
}
