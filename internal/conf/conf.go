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
// written again by anyone, and own, this configuration's writes since (nil
// until the first). A key in own shadows the same key in frozen; every
// reader sees the union.
type Configuration struct {
	mu     sync.RWMutex
	frozen map[string]string
	own    map[string]string
}

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
	c.mu.RLock()
	if len(c.own) == 0 {
		defer c.mu.RUnlock()
		return &Configuration{frozen: c.frozen}
	}
	c.mu.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.own) != 0 {
		c.frozen, c.own = c.union(), nil
	}
	return &Configuration{frozen: c.frozen}
}

// union returns a new map of every property. The caller holds mu.
func (c *Configuration) union() map[string]string {
	m := make(map[string]string, len(c.frozen)+len(c.own))
	maps.Copy(m, c.frozen)
	maps.Copy(m, c.own)
	return m
}

// lookup finds key in either layer. The caller holds mu.
func (c *Configuration) lookup(key string) (string, bool) {
	if v, ok := c.own[key]; ok {
		return v, true
	}
	v, ok := c.frozen[key]
	return v, ok
}

// setLocked stores a property in own. The caller holds mu for writing.
func (c *Configuration) setLocked(key, value string) {
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
	if _, ok := c.frozen[key]; ok {
		c.frozen, c.own = nil, c.union()
	}
	delete(c.own, key)
	c.mu.Unlock()
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
	for k := range c.own {
		out = append(out, k)
	}
	for k := range c.frozen {
		if _, shadowed := c.own[k]; !shadowed {
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
	for k := range c.own {
		if _, shadows := c.frozen[k]; !shadows {
			n++
		}
	}
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
