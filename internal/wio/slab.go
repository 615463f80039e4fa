package wio

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Decoded records come in slabs. A decode site — the raw merge, a spilled
// block's read, an arrival's unpacking, a Decoder's stream — makes one
// object a key or value it decodes. For a class registered by RegisterNew
// it takes them from slabs instead: one make([]T, n) whose elements it hands
// out one at a time. Every object handed out is still a distinct,
// zero-valued object that is never recycled, so whoever is handed one may
// keep it; but keeping one keeps its whole slab in memory.
//
// Which slabs depends on who may keep the objects. A site whose objects die
// with the job starts slabs of its own while it expects at least
// minSlab more objects, and takes the rest — a whole short site — from the
// class's shared slab: one of a set of slabs (sharedSlabs) that outlive any
// job, so that many short sites fill one slab. A site whose objects a cache
// may keep (NewAlloc's kept) never takes from a shared slab, which would keep
// transient slab-mates alive with a cached object: its short part takes
// exact allocations from the factory.

// Slab sizes. A site's slab is as large as all the site has handed out
// before it, from minSlab up to maxSlab, so that a count that overstates
// what is needed — a stream whose keys are back-references, a merge's
// records bounding its groups — strands at most as many objects as were
// used. It never holds more objects than its site knows are still to come,
// so a site that expects fewer than minSlab takes them from the shared slab
// (or, kept, the factory). A site that does not know takes minSlab objects
// there first: then its own slabs of 8, 16, 32, … 256. A shared slab holds
// maxSlab objects. A site whose count is exact (Alloc.Exact) has nothing to
// strand: each of its slabs holds all that is still to come, up to maxSlab,
// however few.
const (
	minSlab = 8
	maxSlab = 256
)

// Float bodies. A transient Reader (SetTransient) cuts a fresh []float64 of
// at most floatCutMax elements from a shared slab of floatSlab, capacity
// clipped to its length; a longer one is an exact allocation, as is every
// body a kept site decodes outside a run (Reader.StartRun).
const (
	floatSlab   = 8192
	floatCutMax = floatSlab / 8
)

// slabSource is one class's current slab.
type slabSource interface {
	fill(n int) (base unsafe.Pointer, size uintptr) // start a fresh slab of n zero values; where it lies
	take() Writable                                 // the slab's next object
	drop()                                          // let go of the slab, so that it pins no object
	left() int                                      // objects the slab has still to hand out
}

type slab[T any, PT interface {
	*T
	Writable
}] struct{ s []T }

func (s *slab[T, PT]) fill(n int) (unsafe.Pointer, uintptr) {
	s.s = make([]T, n)
	var zero T
	return unsafe.Pointer(unsafe.SliceData(s.s)), uintptr(n) * unsafe.Sizeof(zero)
}

func (s *slab[T, PT]) drop() { s.s = nil }

func (s *slab[T, PT]) left() int { return len(s.s) }

func (s *slab[T, PT]) take() Writable {
	p := PT(&s.s[0])
	s.s = s.s[1:]
	return p
}

// sharedSlabs is one set of the slabs that short transient sites share:
// each class's current shared slab, by registration id, and what is left of
// the current float slab. The sets live in a sync.Pool, one taken per
// object or body handed out, so a set is never used by two goroutines at
// once and a collection that finds the pool idle lets the sets go; a slab
// itself lives as long as an object cut from it does.
type sharedSlabs struct {
	objs   []slabSource
	floats []float64
}

var shared = sync.Pool{New: func() any { return new(sharedSlabs) }}

// sharedObject hands out the next object of class id, whose slabs mk
// makes, from a shared slab.
func sharedObject(id int, mk func() slabSource) Writable {
	h := shared.Get().(*sharedSlabs)
	for len(h.objs) <= id {
		h.objs = append(h.objs, nil)
	}
	s := h.objs[id]
	if s == nil {
		s = mk()
		h.objs[id] = s
	}
	if s.left() == 0 {
		noteTransient(s.fill(maxSlab))
	}
	v := s.take()
	shared.Put(h)
	return v
}

// transientFloats returns a fresh zeroed body of n doubles, cap == len: cut
// from a shared float slab when n is at most floatCutMax, so that an append
// to it reallocates and a write through it stays inside it.
func transientFloats(n int) []float64 {
	if n > floatCutMax {
		return make([]float64, n)
	}
	h := shared.Get().(*sharedSlabs)
	if len(h.floats) < n {
		h.floats = make([]float64, floatSlab)
		noteTransient(unsafe.Pointer(unsafe.SliceData(h.floats)), floatSlab*unsafe.Sizeof(float64(0)))
	}
	s := h.floats[:n:n]
	h.floats = h.floats[n:]
	shared.Put(h)
	return s
}

// transientSlabHook is SetTransientSlabHook's function, nil when unset.
var transientSlabHook atomic.Pointer[func(base unsafe.Pointer, size uintptr)]

// SetTransientSlabHook has f told where every slab of objects or float
// bodies that die with the job lies — a transient site's own slabs and the
// shared ones — as each is started; nil stops it. It is a test hook: a test
// that keeps the pointers it is told keeps those slabs alive, and can check
// that no object a cache keeps lies in one. f must be safe for concurrent
// use.
func SetTransientSlabHook(f func(base unsafe.Pointer, size uintptr)) {
	if f == nil {
		transientSlabHook.Store(nil)
		return
	}
	transientSlabHook.Store(&f)
}

func noteTransient(base unsafe.Pointer, size uintptr) {
	if f := transientSlabHook.Load(); f != nil {
		(*f)(base, size)
	}
}

// Alloc hands one decode site the fresh objects of one registered class,
// from slabs when the class has a slab form (RegisterNew) and from its
// factory otherwise. The zero Alloc is not usable; NewAlloc makes one. Not
// for concurrent use.
type Alloc struct {
	new   func() Writable
	mk    func() slabSource
	id    int        // the class's registration id
	kept  bool       // a cache may keep the objects: no shared slab
	exact bool       // New's left is exact (Exact)
	s     slabSource // the site's own slabs, made with the first
	avail int        // objects left in s
	made  int        // objects handed out so far
}

// NewAlloc returns an allocator for the registered class name. kept says a
// cache may keep the site's objects, which then share no slab with objects
// that die with the job; otherwise they die with it.
func NewAlloc(name string, kept bool) (Alloc, error) {
	e, ok := registry.Load().byName[name]
	if !ok {
		return Alloc{}, fmt.Errorf("wio: unknown writable type %q", name)
	}
	return allocOf(e, kept), nil
}

func allocOf(e regEntry, kept bool) Alloc {
	return Alloc{new: e.new, mk: e.slab, id: e.id, kept: kept}
}

// Reset readies a for a new decode site's objects of its class, as
// NewAlloc would, but keeps the holder of its slabs: it lets go of the slab,
// so that an allocator kept for reuse pins no object it handed out.
func (a *Alloc) Reset() {
	if a.s != nil {
		a.s.drop()
	}
	a.avail, a.made, a.exact = 0, 0, false
}

// Exact says the counts the site gives New are exact, not bounds: every
// object it says is still to come will come, as when a run's records are
// counted as they were written and all join one cache entry. A new slab then
// holds all of them, up to maxSlab — one allocation for a run of up to
// maxSlab objects — with no ramp and no factory below minSlab. It lasts
// until Reset.
func (a *Alloc) Exact() { a.exact = true }

// New returns a fresh zero-valued object of the class. left is how many
// objects the site knows are still to come, this one included, or a
// negative number when it does not know; it bounds the size of a new slab.
func (a *Alloc) New(left int) Writable {
	a.made++
	if a.avail > 0 {
		a.avail--
		return a.s.take()
	}
	exact := a.exact && left > 0
	n := min(max(a.made-1, minSlab), maxSlab)
	switch {
	case exact:
		n = min(left, maxSlab)
	case left >= 0:
		n = min(n, left)
	case a.made <= minSlab:
		n = 0
	}
	switch {
	case a.mk == nil || n < minSlab && a.kept && !exact:
		return a.new()
	case n < minSlab && !exact:
		return sharedObject(a.id, a.mk)
	}
	if a.s == nil {
		a.s = a.mk()
	}
	base, size := a.s.fill(n)
	if !a.kept {
		noteTransient(base, size)
	}
	a.avail = n - 1
	return a.s.take()
}
