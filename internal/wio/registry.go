package wio

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
)

// The registry maps stable type names to factories, playing the role of
// Java's class loading in Hadoop: serialized streams (SequenceFiles, the
// shuffle wire format, job configurations) name types as strings, and both
// sides of a connection resolve those names independently.

// Lookups (New, NameOf, Registered, Factory) sit on the record path — every
// clone, every decoded shuffle object — so they are a single atomic load of
// an immutable table; Register, which runs from init functions, copies the
// table under a mutex and publishes the copy.

type regTable struct {
	byName map[string]regEntry
	byType map[reflect.Type]string
}

// regEntry is one registration: the name, kept so that a lookup by bytes can
// hand out the registry's own string, the factory, and, for a class
// registered by RegisterNew, the maker of its slabs. id numbers the
// registrations from 0: it indexes a class's shared slab (sharedSlabs).
type regEntry struct {
	name string
	new  func() Writable
	slab func() slabSource
	id   int
}

var (
	registry   = newRegistry()
	registerMu sync.Mutex
)

// newRegistry publishes an empty table before any init function can
// register into it.
func newRegistry() *atomic.Pointer[regTable] {
	p := new(atomic.Pointer[regTable])
	p.Store(&regTable{})
	return p
}

// Register associates name with a factory. Writable types register
// themselves from init functions. Registering the same name twice panics,
// mirroring a classpath conflict. A class whose factory is new(T) registers
// through RegisterNew instead, so that decode sites can take it from slabs;
// Register is for a factory that does more (a shared singleton, a
// constructor).
func Register(name string, factory func() Writable) {
	register(regEntry{name: name, new: factory})
}

// RegisterNew registers new(T) as the factory of name, as Register would,
// and lets a decode site take objects of the class from slabs (Alloc).
func RegisterNew[T any, PT interface {
	*T
	Writable
}](name string) {
	register(regEntry{
		name: name,
		new:  func() Writable { return PT(new(T)) },
		slab: func() slabSource { return new(slab[T, PT]) },
	})
}

func register(e regEntry) {
	name := e.name
	registerMu.Lock()
	defer registerMu.Unlock()
	old := registry.Load()
	if _, dup := old.byName[name]; dup {
		panic(fmt.Sprintf("wio: duplicate registration of writable %q", name))
	}
	next := &regTable{
		byName: make(map[string]regEntry, len(old.byName)+1),
		byType: make(map[reflect.Type]string, len(old.byType)+1),
	}
	for k, v := range old.byName {
		next.byName[k] = v
	}
	for k, v := range old.byType {
		next.byType[k] = v
	}
	e.id = len(old.byName)
	next.byName[name] = e
	t := reflect.TypeOf(e.new())
	if _, dup := next.byType[t]; !dup {
		next.byType[t] = name
	}
	registry.Store(next)
}

// Factory returns the registered factory for name: a fresh object a call,
// each its own allocation. A decode site that makes one object a record
// takes an Alloc instead.
func Factory(name string) (func() Writable, error) {
	e, ok := registry.Load().byName[name]
	if !ok {
		return nil, fmt.Errorf("wio: unknown writable type %q", name)
	}
	return e.new, nil
}

// lookupName is Factory for a name still in the bytes it arrived in: the
// registry's own copy of the name comes back, so a known name costs no
// string.
func lookupName(name []byte) (regEntry, error) {
	e, ok := registry.Load().byName[string(name)]
	if !ok {
		return regEntry{}, fmt.Errorf("wio: unknown writable type %q", name)
	}
	return e, nil
}

// New instantiates a fresh writable for a registered name.
func New(name string) (Writable, error) {
	factory, err := Factory(name)
	if err != nil {
		return nil, err
	}
	return factory(), nil
}

// NameOf returns the registered name for v's dynamic type.
func NameOf(v Writable) (string, error) {
	name, ok := registry.Load().byType[reflect.TypeOf(v)]
	if !ok {
		return "", fmt.Errorf("wio: type %T is not registered", v)
	}
	return name, nil
}

// entryOf returns the registration of v's dynamic type.
func entryOf(v Writable) (regEntry, error) {
	t := registry.Load()
	name, ok := t.byType[reflect.TypeOf(v)]
	if !ok {
		return regEntry{}, fmt.Errorf("wio: type %T is not registered", v)
	}
	return t.byName[name], nil
}

// Registered reports whether a name is known to the registry.
func Registered(name string) bool {
	_, ok := registry.Load().byName[name]
	return ok
}
