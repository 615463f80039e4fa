package wio

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"m3r/internal/testenv"
)

type slabProbe struct{ v int64 }

func (*slabProbe) WriteTo(*Writer) error    { return nil }
func (*slabProbe) ReadFields(*Reader) error { return nil }

func init() { RegisterNew[slabProbe]("wio.test.SlabProbe") }

// recordingSlab notes the size of every slab it starts.
type recordingSlab struct {
	slabSource
	sizes *[]int
}

func (r recordingSlab) fill(n int) (unsafe.Pointer, uintptr) {
	*r.sizes = append(*r.sizes, n)
	return r.slabSource.fill(n)
}

// TestAllocSlabSizes pins the slab rule: each of a site's own slabs as large
// as all handed out before it, from 8 up to 256; a known count bounds every
// slab, and what is left below eight objects comes from the shared slab —
// from the plain factory at a kept site; an unknown count takes eight
// objects there first. An exact count (Exact) makes each slab all that is
// still to come, up to 256, however few; objects past it take the kept
// rule.
func TestAllocSlabSizes(t *testing.T) {
	probe := registry.Load().byName["wio.test.SlabProbe"]
	// slabs reports the size of each slab the site starts of its own, and
	// how many objects came from the shared slab and from the factory,
	// while objects are taken with the counts left(i) says are still to
	// come.
	slabs := func(objects int, left func(i int) int, kept, exact bool) (own []int, shared, factory int) {
		e := probe
		e.new = func() Writable { factory++; return new(slabProbe) }
		e.slab = func() slabSource {
			var sizes []int
			return recordingSlab{new(slab[slabProbe, *slabProbe]), &sizes}
		}
		a := allocOf(e, kept)
		if exact {
			a.Exact()
		}
		for i := 0; i < objects; i++ {
			a.New(left(i))
		}
		ownObjects := 0
		if a.s != nil {
			own = *a.s.(recordingSlab).sizes
			for _, n := range own {
				ownObjects += n
			}
			ownObjects -= a.avail
		}
		return own, objects - ownObjects - factory, factory
	}
	for _, c := range []struct {
		name    string
		objects int
		left    func(i int) int
		kept    bool
		own     []int
		shared  int
		factory int
	}{
		{"known 1000", 1000, func(i int) int { return 1000 - i }, false, []int{8, 8, 16, 32, 64, 128, 256, 256, 232}, 0, 0},
		{"known 10", 10, func(i int) int { return 10 - i }, false, []int{8}, 2, 0},
		{"known 10 kept", 10, func(i int) int { return 10 - i }, true, []int{8}, 0, 2},
		{"known 7", 7, func(i int) int { return 7 - i }, false, nil, 7, 0},
		{"known 7 kept", 7, func(i int) int { return 7 - i }, true, nil, 0, 7},
		{"known 263", 263, func(i int) int { return 263 - i }, false, []int{8, 8, 16, 32, 64, 128}, 7, 0},
		{"overstated", 20, func(i int) int { return 1000 - i }, false, []int{8, 8, 16}, 0, 0},
		{"unknown", 1000, func(int) int { return -1 }, false, []int{8, 16, 32, 64, 128, 256, 256, 256}, 8, 0},
		{"unknown kept", 1000, func(int) int { return -1 }, true, []int{8, 16, 32, 64, 128, 256, 256, 256}, 0, 8},
		{"unknown 8", 8, func(int) int { return -1 }, false, nil, 8, 0},
	} {
		own, shared, factory := slabs(c.objects, c.left, c.kept, false)
		if !slices.Equal(own, c.own) || shared != c.shared || factory != c.factory {
			t.Errorf("%s: own slabs %v, %d shared, %d from the factory; want %v, %d, %d", c.name, own, shared, factory, c.own, c.shared, c.factory)
		}
	}
	known := func(n int) func(int) int { return func(i int) int { return max(n-i, 0) } }
	for _, c := range []struct {
		name    string
		objects int
		left    func(i int) int
		own     []int
		factory int
	}{
		{"exact 1000", 1000, known(1000), []int{256, 256, 256, 232}, 0},
		{"exact 16", 16, known(16), []int{16}, 0},
		{"exact 7", 7, known(7), []int{7}, 0},
		{"exact 1", 1, known(1), []int{1}, 0},
		{"exact 16, 2 past it", 18, known(16), []int{16}, 2},
	} {
		own, shared, factory := slabs(c.objects, c.left, true, true)
		if !slices.Equal(own, c.own) || shared != 0 || factory != c.factory {
			t.Errorf("%s: own slabs %v, %d shared, %d from the factory; want %v, 0, %d", c.name, own, shared, factory, c.own, c.factory)
		}
	}
}

// Zero-size writables: making one allocates nothing, so a decode of them
// allocates only what the decoder itself does.
type (
	noneA struct{}
	noneB struct{}
	noneC struct{}
)

func (*noneA) WriteTo(*Writer) error    { return nil }
func (*noneA) ReadFields(*Reader) error { return nil }
func (*noneB) WriteTo(*Writer) error    { return nil }
func (*noneB) ReadFields(*Reader) error { return nil }
func (*noneC) WriteTo(*Writer) error    { return nil }
func (*noneC) ReadFields(*Reader) error { return nil }

func init() {
	Register("wio.decoder.NoneA", func() Writable { return new(noneA) })
	Register("wio.decoder.NoneB", func() Writable { return new(noneB) })
	Register("wio.decoder.NoneC", func() Writable { return new(noneC) })
}

// TestDecoderNamesAllocateNothing: a decoder meeting the names of three
// registered classes looks each up in the bytes it arrived in and keeps the
// registry's own string, so the names cost no allocation — with the
// decoder's tables grown by a stream before, a whole stream costs none.
func TestDecoderNamesAllocateNothing(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not stable under the race detector")
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf, false)
	for i := 0; i < 4; i++ {
		for _, v := range []Writable{new(noneA), new(noneB), new(noneC)} {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	var src bytes.Reader
	d := NewDecoder(&src)
	decodeAll := func() {
		src.Reset(buf.Bytes())
		d.Reaim(&src)
		for i := 0; i < 12; i++ {
			if _, err := d.Decode(); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll()
	if n := testing.AllocsPerRun(100, decodeAll); n != 0 {
		t.Errorf("a stream of three registered classes: %v allocs, want 0", n)
	}
}
