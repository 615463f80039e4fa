package wio

import (
	"bytes"
	"slices"
	"testing"

	"m3r/internal/testenv"
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
