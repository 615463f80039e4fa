package wio

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
