package conf

import (
	"fmt"
	"os"
	"strings"
)

// DefaultsEnv is the one environment variable the engines read: a
// whitespace-separated list of key=value fields — Hadoop's site-defaults
// file as one variable — giving defaults for any conf key, e.g.
//
//	M3R_CONF_DEFAULTS="m3r.engine.shuffle.budget.bytes=65536 m3r.shuffle.budget.bytes=4096"
//
// Both engines apply it at submission to every key the job leaves unset
// (an explicit value, including an explicit 0, wins), and m3r.New consults
// it for the engine-scoped keys its Options leave at zero. CI's budget,
// codec and retry legs drive the whole suite through it.
const DefaultsEnv = "M3R_CONF_DEFAULTS"

// EnvDefaults parses the process's DefaultsEnv (empty when unset). A field
// without '=' or with an empty key is an error: a typo must not silently
// run unconfigured.
func EnvDefaults() (*Configuration, error) {
	d := New()
	for _, field := range strings.Fields(os.Getenv(DefaultsEnv)) {
		k, v, ok := strings.Cut(field, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("conf: %s: field %q is not key=value", DefaultsEnv, field)
		}
		d.Set(k, v)
	}
	return d, nil
}

// SetDefaults copies into c every property of d that c leaves unset.
func (c *Configuration) SetDefaults(d *Configuration) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	// d's own layer first: a key it shadows in d's frozen layer is then
	// already set in c when the frozen one comes round.
	setUnset := func(k, v string) {
		if _, ok := c.lookup(k); !ok {
			c.setLocked(k, v)
		}
	}
	d.eachOwn(setUnset)
	for k, v := range d.frozen {
		setUnset(k, v)
	}
}
