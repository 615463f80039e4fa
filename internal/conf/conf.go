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

// Configuration is a concurrency-safe string-to-string property map.
type Configuration struct {
	mu sync.RWMutex
	m  map[string]string
}

// New returns an empty Configuration.
func New() *Configuration {
	return &Configuration{m: make(map[string]string)}
}

// Clone returns a deep copy, its map sized for the copy up front: every
// job, task attempt and delegated input takes one.
func (c *Configuration) Clone() *Configuration {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return &Configuration{m: maps.Clone(c.m)}
}

// Set stores a property.
func (c *Configuration) Set(key, value string) {
	c.mu.Lock()
	c.m[key] = value
	c.mu.Unlock()
}

// Unset removes a property.
func (c *Configuration) Unset(key string) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}

// Get returns the property value, or "" when unset.
func (c *Configuration) Get(key string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m[key]
}

// GetDefault returns the property value, or def when unset.
func (c *Configuration) GetDefault(key, def string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if v, ok := c.m[key]; ok {
		return v
	}
	return def
}

// Has reports whether the key is set.
func (c *Configuration) Has(key string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.m[key]
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
	out := make([]string, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of properties.
func (c *Configuration) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
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
	c.m = make(map[string]string, min(n, uint64(r.Remaining()/2)))
	for i := uint64(0); i < n; i++ {
		k, err := r.ReadString()
		if err != nil {
			return err
		}
		v, err := r.ReadString()
		if err != nil {
			return err
		}
		c.m[k] = v
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
