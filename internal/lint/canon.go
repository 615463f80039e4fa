package lint

import (
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

const (
	confPath     = "m3r/internal/conf"
	countersPath = "m3r/internal/counters"
	simPath      = "m3r/internal/sim"
)

// Canon is the module's canonical name facts: every configuration-key
// string owned by a Key* constant, and every counter group and counter
// name constant in internal/counters. keycheck flags literals that shadow
// (or near-miss) these.
type Canon struct {
	// ConfKeys maps a canonical key value to the qualified constant that
	// owns it, e.g. "io.sort.mb" -> "conf.KeySortMB".
	ConfKeys map[string]string
	// CounterGroups maps a canonical group value to its constant, e.g. the
	// value of counters.JobGroup -> "counters.JobGroup".
	CounterGroups map[string]string
	// CounterNames maps a canonical counter name to its constant.
	CounterNames map[string]string
}

// Canon builds (once) the canonical facts by importing every module
// package's export data and collecting exported Key*-named string
// constants, plus all of internal/counters' string constants. Export data
// is enough: canonical constants are exported by convention.
func (l *Loader) Canon() (*Canon, error) {
	if l.canon != nil {
		return l.canon, nil
	}
	c := &Canon{
		ConfKeys:      make(map[string]string),
		CounterGroups: make(map[string]string),
		CounterNames:  make(map[string]string),
	}
	var paths []string
	for path := range l.exports {
		if strings.HasPrefix(path, l.ModPath+"/internal/") {
			paths = append(paths, path)
		}
	}
	// conf first so it wins value collisions; then deterministic order.
	sort.Slice(paths, func(i, j int) bool {
		if (paths[i] == confPath) != (paths[j] == confPath) {
			return paths[i] == confPath
		}
		return paths[i] < paths[j]
	})
	for _, path := range paths {
		pkg, err := l.imp.Import(path)
		if err != nil {
			return nil, err
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			cn, ok := scope.Lookup(name).(*types.Const)
			if !ok || cn.Val().Kind() != constant.String {
				continue
			}
			val := constant.StringVal(cn.Val())
			qualified := pkg.Name() + "." + name
			if path == countersPath {
				if strings.HasSuffix(name, "Group") {
					c.CounterGroups[val] = qualified
				} else {
					c.CounterNames[val] = qualified
				}
				continue
			}
			if strings.HasPrefix(name, "Key") {
				if _, taken := c.ConfKeys[val]; !taken {
					c.ConfKeys[val] = qualified
				}
			}
		}
	}
	l.canon = c
	return c, nil
}
