package wio

import "io"

// RegisteredNames lists every registered class name.
func RegisteredNames() []string {
	byName := registry.Load().byName
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	return names
}

// HasSlab reports whether name was registered by RegisterNew.
func HasSlab(name string) bool { return registry.Load().byName[name].slab != nil }

// Reaim aims d at r as a new stream: no type named and no object seen, the
// tables keeping their memory, so that what a test measures of a stream is
// the stream's own allocations, not the growth of the decoder's tables.
func (d *Decoder) Reaim(r io.Reader) {
	d.r.Reset(r)
	clear(d.types)
	clear(d.objs)
	d.types, d.objs = d.types[:0], d.objs[:0]
}
