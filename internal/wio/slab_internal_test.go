package wio

import (
	"slices"
	"testing"
)

type slabProbe struct{ v int64 }

func (*slabProbe) WriteTo(*Writer) error    { return nil }
func (*slabProbe) ReadFields(*Reader) error { return nil }

// recordingSlab notes the size of every slab it starts.
type recordingSlab struct {
	slabSource
	sizes *[]int
}

func (r recordingSlab) fill(n int) {
	*r.sizes = append(*r.sizes, n)
	r.slabSource.fill(n)
}

// TestAllocSlabSizes pins the slab rule: each slab as large as all handed
// out before it, from 8 up to 256; a known count bounds every slab and
// below eight objects means the plain factory; an unknown one takes eight
// objects from the factory first.
func TestAllocSlabSizes(t *testing.T) {
	// slabs reports the size of each slab started while objects are taken
	// with the counts left(i) says are still to come.
	slabs := func(objects int, left func(i int) int) []int {
		var sizes []int
		a := allocOf(regEntry{
			name: "probe",
			new:  func() Writable { return new(slabProbe) },
			slab: func() slabSource { return recordingSlab{new(slab[slabProbe, *slabProbe]), &sizes} },
		})
		for i := 0; i < objects; i++ {
			a.New(left(i))
		}
		return sizes
	}
	for _, c := range []struct {
		name    string
		objects int
		left    func(i int) int
		want    []int
	}{
		{"known 1000", 1000, func(i int) int { return 1000 - i }, []int{8, 8, 16, 32, 64, 128, 256, 256, 232}},
		{"known 10", 10, func(i int) int { return 10 - i }, []int{8}},
		{"known 7", 7, func(i int) int { return 7 - i }, nil},
		{"known 263", 263, func(i int) int { return 263 - i }, []int{8, 8, 16, 32, 64, 128}},
		{"overstated", 20, func(i int) int { return 1000 - i }, []int{8, 8, 16}},
		{"unknown", 1000, func(int) int { return -1 }, []int{8, 16, 32, 64, 128, 256, 256, 256}},
		{"unknown 8", 8, func(int) int { return -1 }, nil},
	} {
		if got := slabs(c.objects, c.left); !slices.Equal(got, c.want) {
			t.Errorf("%s: slabs %v, want %v", c.name, got, c.want)
		}
	}
}

// TestResetBytesDropsSlabs: a pooled decoder starting a new stream keeps no
// type of the last one, and of its slabs only the holders, empty: the pool
// keeps no earlier stream's objects alive. The next stream's type of the
// same class takes the kept holder.
func TestResetBytesDropsSlabs(t *testing.T) {
	RegisterNew[slabProbe]("wio.slabProbe")
	var w Writer
	enc := NewEncoder(&w, false)
	for i := 0; i < 100; i++ {
		if err := enc.Encode(new(slabProbe)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	var d Decoder
	d.ResetBytes(w.Bytes(), false)
	d.Expect(100)
	for i := 0; i < 100; i++ {
		if _, err := d.Decode(); err != nil {
			t.Fatal(err)
		}
	}
	if d.types[0].alloc.s == nil {
		t.Fatal("the stream's objects did not come from a slab")
	}
	holder := d.types[0].alloc.s
	d.ResetBytes(nil, false)
	for i, dt := range d.types[:cap(d.types)] {
		if dt.name != "" || dt.alloc.new != nil || dt.alloc.s != nil {
			t.Errorf("type %d of the last stream is still held: %+v", i, dt)
		}
	}
	if len(d.holders) != 1 || d.holders[0].s != holder {
		t.Fatalf("the decoder keeps %d slab holders, want the last stream's one", len(d.holders))
	}
	if s := holder.(*slab[slabProbe, *slabProbe]).s; s != nil {
		t.Errorf("the kept holder still pins %d objects of the last stream's slab", len(s))
	}
	if d.left >= 0 {
		t.Error("the last stream's expected count survived ResetBytes")
	}
	d.ResetBytes(w.Bytes(), false)
	if _, err := d.Decode(); err != nil {
		t.Fatal(err)
	}
	if d.types[0].alloc.s != holder {
		t.Error("the next stream's type made a holder of its own")
	}
}
