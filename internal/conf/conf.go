// Package conf implements the string-keyed configuration object that
// Hadoop threads through every job: the client fills in class names, paths
// and tuning knobs; the engine and all user code read from it. JobConf
// layers job-specific helpers over the generic Configuration.
//
// Configurations are serializable (wio) because a job submission in server
// mode ships the whole JobConf across the wire, exactly as Hadoop writes
// job.xml into the jobtracker's filesystem (§3.1 of the paper).
package conf

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"

	"m3r/internal/wio"
)

// Configuration is a concurrency-safe string-to-string property map in two
// layers: frozen, a map shared with the clones taken from it and never
// written again by anyone, and own, this configuration's writes since. A key
// in own shadows the same key in frozen; every reader sees the union.
//
// own keeps its first writes in line, in few, and only the rest in a map (a
// key is in one of the two): a task attempt's clone of its job's conf sets a
// key or two (its partition, its place), and those cost it no allocation.
type Configuration struct {
	mu     sync.RWMutex
	frozen map[string]string
	few    [2]prop
	nfew   int
	own    map[string]string // the rest of own; nil until needed
}

// prop is one property of own's in-line part.
type prop struct{ key, value string }

// New returns an empty Configuration.
func New() *Configuration {
	return &Configuration{}
}

// Clone returns an independent copy: writes to either side stay on that
// side. The source's own writes are folded into a fresh frozen map, once,
// which the source and the clone then share; a clone taken while the source
// has no writes since costs one struct. So a job cloned for every task
// attempt copies its properties once, not once an attempt.
func (c *Configuration) Clone() *Configuration {
	return &Configuration{frozen: c.freeze()}
}

// freeze folds c's own writes, if any, into a fresh frozen map, which c then
// shares with whoever it returns it to.
func (c *Configuration) freeze() map[string]string {
	c.mu.RLock()
	if c.ownLen() == 0 {
		defer c.mu.RUnlock()
		return c.frozen
	}
	c.mu.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ownLen() != 0 {
		c.frozen = c.union()
		c.dropOwn()
	}
	return c.frozen
}

// union returns a new map of every property. The caller holds mu.
func (c *Configuration) union() map[string]string {
	m := make(map[string]string, len(c.frozen)+c.ownLen())
	maps.Copy(m, c.frozen)
	c.eachOwn(func(k, v string) { m[k] = v })
	return m
}

// eachOwn calls f for every property of own. The caller holds mu.
func (c *Configuration) eachOwn(f func(k, v string)) {
	for _, p := range c.few[:c.nfew] {
		f(p.key, p.value)
	}
	for k, v := range c.own {
		f(k, v)
	}
}

// ownLen is the number of properties in own. The caller holds mu.
func (c *Configuration) ownLen() int { return c.nfew + len(c.own) }

// dropOwn empties own. The caller holds mu for writing.
func (c *Configuration) dropOwn() {
	c.few, c.nfew, c.own = [len(c.few)]prop{}, 0, nil
}

// lookupOwn finds key in own. The caller holds mu.
func (c *Configuration) lookupOwn(key string) (string, bool) {
	for _, p := range c.few[:c.nfew] {
		if p.key == key {
			return p.value, true
		}
	}
	v, ok := c.own[key]
	return v, ok
}

// lookup finds key in either layer. The caller holds mu.
func (c *Configuration) lookup(key string) (string, bool) {
	if v, ok := c.lookupOwn(key); ok {
		return v, true
	}
	v, ok := c.frozen[key]
	return v, ok
}

// setLocked stores a property in own: in few while it has room, then in
// the map. The caller holds mu for writing.
func (c *Configuration) setLocked(key, value string) {
	for i := range c.few[:c.nfew] {
		if c.few[i].key == key {
			c.few[i].value = value
			return
		}
	}
	if _, ok := c.own[key]; !ok && c.nfew < len(c.few) {
		c.few[c.nfew] = prop{key, value}
		c.nfew++
		return
	}
	if c.own == nil {
		c.own = make(map[string]string)
	}
	c.own[key] = value
}

// Set stores a property.
func (c *Configuration) Set(key, value string) {
	c.mu.Lock()
	c.setLocked(key, value)
	c.mu.Unlock()
}

// Unset removes a property. A frozen key cannot be deleted from the shared
// map, so the configuration first takes its own copy of every property.
func (c *Configuration) Unset(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.frozen[key]; ok {
		all := c.union()
		c.dropOwn()
		c.frozen, c.own = nil, all
		delete(c.own, key)
		return
	}
	delete(c.own, key)
	for i := range c.few[:c.nfew] {
		if c.few[i].key == key {
			c.nfew--
			c.few[i], c.few[c.nfew] = c.few[c.nfew], prop{}
			return
		}
	}
}

// Get returns the property value, or "" when unset.
func (c *Configuration) Get(key string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, _ := c.lookup(key)
	return v
}

// GetDefault returns the property value, or def when unset.
func (c *Configuration) GetDefault(key, def string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if v, ok := c.lookup(key); ok {
		return v
	}
	return def
}

// Has reports whether the key is set.
func (c *Configuration) Has(key string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.lookup(key)
	return ok
}

// SetInt stores an integer property.
func (c *Configuration) SetInt(key string, v int) { c.Set(key, strconv.Itoa(v)) }

// GetInt returns the integer property, or def when unset or malformed.
func (c *Configuration) GetInt(key string, def int) int {
	v := c.Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// SetInt64 stores a 64-bit integer property.
func (c *Configuration) SetInt64(key string, v int64) { c.Set(key, strconv.FormatInt(v, 10)) }

// GetInt64 returns the 64-bit integer property, or def.
func (c *Configuration) GetInt64(key string, def int64) int64 {
	v := c.Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return def
	}
	return n
}

// SetFloat stores a float property.
func (c *Configuration) SetFloat(key string, v float64) {
	c.Set(key, strconv.FormatFloat(v, 'g', -1, 64))
}

// GetFloat returns the float property, or def.
func (c *Configuration) GetFloat(key string, def float64) float64 {
	v := c.Get(key)
	if v == "" {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return def
	}
	return f
}

// SetBool stores a boolean property.
func (c *Configuration) SetBool(key string, v bool) { c.Set(key, strconv.FormatBool(v)) }

// GetBool returns the boolean property, or def.
func (c *Configuration) GetBool(key string, def bool) bool {
	v := c.Get(key)
	if v == "" {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return def
	}
	return b
}

// SetStrings stores a comma-separated list property.
func (c *Configuration) SetStrings(key string, vals ...string) {
	c.Set(key, strings.Join(vals, ","))
}

// GetStrings returns the comma-separated list property, or nil when unset.
func (c *Configuration) GetStrings(key string) []string {
	v := c.Get(key)
	if v == "" {
		return nil
	}
	return strings.Split(v, ",")
}

// Names returns all property keys in sorted order.
func (c *Configuration) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, c.lenLocked())
	c.eachOwn(func(k, _ string) { out = append(out, k) })
	for k := range c.frozen {
		if _, shadowed := c.lookupOwn(k); !shadowed {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of properties.
func (c *Configuration) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lenLocked()
}

func (c *Configuration) lenLocked() int {
	n := len(c.frozen)
	c.eachOwn(func(k, _ string) {
		if _, shadows := c.frozen[k]; !shadows {
			n++
		}
	})
	return n
}

// WriteTo implements wio.Writable.
func (c *Configuration) WriteTo(w *wio.Writer) error {
	names := c.Names()
	if err := w.WriteUvarint(uint64(len(names))); err != nil {
		return err
	}
	for _, k := range names {
		if err := w.WriteString(k); err != nil {
			return err
		}
		if err := w.WriteString(c.Get(k)); err != nil {
			return err
		}
	}
	return nil
}

// ReadFields implements wio.Writable. The count off the wire presizes the
// map only for the entries (≥ 2 bytes each) the bytes left could hold.
func (c *Configuration) ReadFields(r *wio.Reader) error {
	n, err := r.ReadUvarint()
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropOwn()
	c.frozen, c.own = nil, make(map[string]string, min(n, uint64(r.Remaining()/2)))
	for i := uint64(0); i < n; i++ {
		k, err := r.ReadString()
		if err != nil {
			return err
		}
		v, err := r.ReadString()
		if err != nil {
			return err
		}
		c.own[k] = v
	}
	return nil
}

func init() {
	wio.Register("org.apache.hadoop.conf.Configuration", func() wio.Writable { return New() })
}

// String renders the configuration for debugging.
func (c *Configuration) String() string {
	var sb strings.Builder
	for _, k := range c.Names() {
		fmt.Fprintf(&sb, "%s=%s\n", k, c.Get(k))
	}
	return sb.String()
}
