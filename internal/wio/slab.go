package wio

import "fmt"

// Decoded records come in slabs. A decode site — the raw merge, a spilled
// block's read, a Decoder's stream — makes one object a key or value it
// decodes. For a class registered by RegisterNew it takes them from slabs
// instead: one make([]T, n) whose elements it hands out one at a time. Every
// object handed out is still a distinct, zero-valued object that is never
// recycled, so whoever is handed one may keep it; but keeping one keeps its
// whole slab in memory.

// Slab sizes. A slab is as large as all its site has handed out before it,
// from minSlab up to maxSlab, so that a count that overstates what is
// needed — a stream whose keys are back-references, a merge's records
// bounding its groups — strands at most as many objects as were used. It
// never holds more objects than its site knows are still to come, so a
// site that expects fewer than minSlab takes them from the plain factory.
// A site that does not know hands out minSlab objects from the factory
// first: 8, 16, 32, … 256.
const (
	minSlab = 8
	maxSlab = 256
)

// slabSource is one class's current slab.
type slabSource interface {
	fill(n int)     // start a fresh slab of n zero values
	take() Writable // the slab's next object
	drop()          // let go of the slab, so that it pins no object
}

type slab[T any, PT interface {
	*T
	Writable
}] struct{ s []T }

func (s *slab[T, PT]) fill(n int) { s.s = make([]T, n) }

func (s *slab[T, PT]) drop() { s.s = nil }

func (s *slab[T, PT]) take() Writable {
	p := PT(&s.s[0])
	s.s = s.s[1:]
	return p
}

// Alloc hands one decode site the fresh objects of one registered class,
// from slabs when the class has a slab form (RegisterNew) and from its
// factory otherwise. The zero Alloc is not usable; NewAlloc makes one. Not
// for concurrent use.
type Alloc struct {
	new   func() Writable
	mk    func() slabSource
	s     slabSource // made with the first slab
	avail int        // objects left in s
	made  int        // objects handed out so far
}

// NewAlloc returns an allocator for the registered class name.
func NewAlloc(name string) (Alloc, error) {
	e, ok := registry.Load().byName[name]
	if !ok {
		return Alloc{}, fmt.Errorf("wio: unknown writable type %q", name)
	}
	return allocOf(e), nil
}

func allocOf(e regEntry) Alloc { return Alloc{new: e.new, mk: e.slab} }

// Reset readies a for a new decode site's objects of its class, as
// NewAlloc would, but keeps the holder of its slabs: it lets go of the slab,
// so that an allocator kept for reuse pins no object it handed out.
func (a *Alloc) Reset() {
	if a.s != nil {
		a.s.drop()
	}
	a.avail, a.made = 0, 0
}

// New returns a fresh zero-valued object of the class. left is how many
// objects the site knows are still to come, this one included, or a
// negative number when it does not know; it bounds the size of a new slab.
func (a *Alloc) New(left int) Writable {
	a.made++
	if a.avail > 0 {
		a.avail--
		return a.s.take()
	}
	n := min(max(a.made-1, minSlab), maxSlab)
	switch {
	case left >= 0:
		n = min(n, left)
	case a.made <= minSlab:
		n = 0
	}
	if a.mk == nil || n < minSlab {
		return a.new()
	}
	if a.s == nil {
		a.s = a.mk()
	}
	a.s.fill(n)
	a.avail = n - 1
	return a.s.take()
}
