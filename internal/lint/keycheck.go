package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"m3r/internal/counters"
)

// Keycheck pins every configuration key and counter name to its canonical
// constant. A string literal shaped like a conf key (m3r.* / mapred.* /
// mapreduce.* / io.*) outside internal/conf either duplicates a canonical
// Key* constant (use the constant) or matches none (a typo'd knob that
// would silently read its default — the failure mode this analyzer
// exists to kill). Counter-name literals passed to counters.Counters
// calls under a canonical group get the same treatment; user counters in
// custom groups pass untouched. Canonical declarations themselves —
// const Key* anywhere, const *Name class names like types.PairName — are
// the one place a literal is allowed. The same single-name rule covers the
// environment: reading an M3R_-prefixed variable outside internal/conf is a
// diagnostic, because knob defaults have one carrier (conf.DefaultsEnv)
// and a per-knob variable is a second name for a conf key. And it covers the
// engine statistics: a sim name that counters.TaskStats maps is fed from the
// task's counter by the task envelope, so a Stats.Add of it is a second count
// of the same event — allowed only in the functions of taskless.
var Keycheck = &Analyzer{
	Name: "keycheck",
	Doc:  "conf-key and counter-name literals must use the canonical constants; M3R_* environment reads belong to internal/conf; a statistic counters.TaskStats maps is counted in the task's counter only",
	Run:  runKeycheck,
}

// keyShape matches configuration-key-shaped literals. % is allowed inside
// segments so format strings that bake in a key prefix are caught too.
var keyShape = regexp.MustCompile(`^(m3r|mapred|mapreduce|io)\.[A-Za-z0-9_%][A-Za-z0-9_%.-]*$`)

// canonDeclName matches constant names allowed to carry a key-shaped
// literal as their declaration: canonical Key constants and registered
// class-name constants (e.g. types.PairName = "m3r.io.PairWritable").
var canonDeclName = regexp.MustCompile(`^(Key|key)[A-Za-z0-9_]*$|^[A-Za-z0-9_]*Name$`)

func runKeycheck(pass *Pass) []Diag {
	p := pass.Pkg
	if p.ImportPath == confPath || p.ImportPath == countersPath {
		return nil
	}
	canon := pass.Canon
	if canon == nil {
		return nil
	}
	allowed := canonDeclLiterals(p)
	counterLits := make(map[*ast.BasicLit]bool)
	var diags []Diag
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				diags = append(diags, counterDiags(p, canon, call, counterLits)...)
				diags = append(diags, envDiags(p, call)...)
				return true
			}
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || allowed[lit] || counterLits[lit] {
				return true
			}
			val, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if owner, ok := canon.ConfKeys[val]; ok {
				diags = append(diags, Diag{Pos: lit.Pos(), Message: fmt.Sprintf(
					"conf key literal %q duplicates %s; use the constant", val, owner)})
			} else if keyShape.MatchString(val) {
				diags = append(diags, Diag{Pos: lit.Pos(), Message: fmt.Sprintf(
					"%q looks like a conf key but no canonical Key constant defines it; add one (internal/conf or the owning package) or fix the typo", val)})
			}
			return true
		})
	}
	return append(diags, taskStatDiags(p)...)
}

// taskless names the functions that may Add a statistic counters.TaskStats
// maps, because what they count happens outside any task and has no counter
// to be counted in.
var taskless = map[string]bool{
	// Block moves between places (kvstore) ship without a task: ChargeShip's
	// nil-task branch, and ShipPairs' count of a same-place send.
	"m3r/internal/x10.ChargeShip": true,
	"m3r/internal/x10.ShipPairs":  true,
	// The Hadoop engine's map-side sort spills: its reports carry no
	// SPILLED_* counters.
	"m3r/internal/hadoop.chargeSpill": true,
}

// taskStatDiags flags a (*sim.Stats).Add of a name counters.TaskStats maps
// in any function taskless does not name.
func taskStatDiags(p *Package) []Diag {
	counter := make(map[string]string)
	for _, row := range counters.TaskStats {
		counter[row.Stat] = row.Name
	}
	var diags []Diag
	for _, fd := range funcDecls(p) {
		if taskless[p.ImportPath+"."+fd.Name.Name] {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			fn := staticCallee(p.Info, call)
			if fn == nil || fn.Name() != "Add" {
				return true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv == nil || !typeIs(recv.Type(), simPath, "Stats") {
				return true
			}
			if name, ok := constString(p.Info, call.Args[0]); ok && counter[name] != "" {
				diags = append(diags, Diag{Pos: call.Pos(), Message: fmt.Sprintf(
					"statistic %q is fed from the task counter %s by the task envelope (counters.TaskStats); count the event in the task's counter, not with Stats.Add", name, counter[name])})
			}
			return true
		})
	}
	return diags
}

// envDiags flags an os.Getenv/os.LookupEnv of an M3R_-prefixed name.
func envDiags(p *Package, call *ast.CallExpr) []Diag {
	fn := staticCallee(p.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" ||
		(fn.Name() != "Getenv" && fn.Name() != "LookupEnv") || len(call.Args) != 1 {
		return nil
	}
	name, ok := constString(p.Info, call.Args[0])
	if !ok || !strings.HasPrefix(name, "M3R_") {
		return nil
	}
	return []Diag{{Pos: call.Pos(), Message: fmt.Sprintf(
		"environment variable %q read outside internal/conf; a knob default is a field of conf.DefaultsEnv, read with conf.EnvDefaults", name)}}
}

// canonDeclLiterals collects the string literals that ARE canonical
// declarations: values of const specs whose name keycheck recognizes as a
// key or class-name constant.
func canonDeclLiterals(p *Package) map[*ast.BasicLit]bool {
	allowed := make(map[*ast.BasicLit]bool)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) || !canonDeclName.MatchString(name.Name) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok {
						allowed[lit] = true
					}
				}
			}
		}
	}
	return allowed
}

// counterDiags checks one call for counter group/name literals. It fires
// only on the counters API (Counters.Incr/Find/Value, TaskContext
// counter helpers), and only when the group argument resolves to a
// canonical group constant — custom user groups keep free-form names.
func counterDiags(p *Package, canon *Canon, call *ast.CallExpr, seen map[*ast.BasicLit]bool) []Diag {
	fn := staticCallee(p.Info, call)
	if fn == nil || !isCounterAPI(fn) || len(call.Args) < 2 {
		return nil
	}
	groupArg, nameArg := call.Args[0], call.Args[1]
	// Mark both argument literals as handled so the conf-key pass does not
	// double-report them.
	for _, a := range [2]ast.Expr{groupArg, nameArg} {
		if lit, ok := a.(*ast.BasicLit); ok {
			seen[lit] = true
		}
	}
	var diags []Diag
	groupVal, groupConst := constString(p.Info, groupArg)
	if !groupConst {
		return nil
	}
	owner, canonical := canon.CounterGroups[groupVal]
	if lit, ok := groupArg.(*ast.BasicLit); ok && canonical {
		diags = append(diags, Diag{Pos: lit.Pos(), Message: fmt.Sprintf(
			"counter group literal %q duplicates %s; use the constant", groupVal, owner)})
	}
	if !canonical {
		return diags
	}
	if lit, ok := nameArg.(*ast.BasicLit); ok {
		nameVal, _ := constString(p.Info, nameArg)
		if nameOwner, ok := canon.CounterNames[nameVal]; ok {
			diags = append(diags, Diag{Pos: lit.Pos(), Message: fmt.Sprintf(
				"counter name literal %q duplicates %s; use the constant", nameVal, nameOwner)})
		} else {
			diags = append(diags, Diag{Pos: lit.Pos(), Message: fmt.Sprintf(
				"unknown counter name %q under a canonical group; add a constant to internal/counters or use a custom group", nameVal)})
		}
	}
	return diags
}

// isCounterAPI reports whether fn is a counters lookup/increment method
// taking (group, name, ...) arguments.
func isCounterAPI(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	recv := namedOf(sig.Recv().Type())
	if recv == nil || recv.Obj().Pkg() == nil {
		return false
	}
	switch recv.Obj().Pkg().Path() {
	case countersPath:
		return recv.Obj().Name() == "Counters" &&
			(fn.Name() == "Incr" || fn.Name() == "Find" || fn.Name() == "Value")
	case enginePath:
		return recv.Obj().Name() == "TaskContext" && strings.Contains(fn.Name(), "Counter")
	}
	return false
}

// constString evaluates an expression to a constant string value.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	s := tv.Value.ExactString()
	val, err := strconv.Unquote(s)
	if err != nil {
		return "", false
	}
	return val, true
}
