package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Loopcancel keeps task-execution hot loops killable: in the execution
// packages (internal/m3r, internal/hadoop, internal/engine), a loop that
// pumps records via .Next() inside a function that can see a
// JobLifecycle — directly, or through a field of its receiver or
// parameters — must poll cancellation: lc.Err()/lc.Done() in the loop or
// a same-package helper that polls. Functions with no lifecycle in reach
// (generic merge kernels like SourceMerge, DriveReduce) are exempt by
// design — their callers own cancellation by wrapping the input iterator,
// as engine.PairMerges does.
var Loopcancel = &Analyzer{
	Name: "loopcancel",
	Doc:  "record loops in task-execution paths must poll the JobLifecycle",
	Run:  runLoopcancel,
}

// loopcancelScope is the set of task-execution packages under the rule.
var loopcancelScope = map[string]bool{
	"m3r/internal/m3r":    true,
	"m3r/internal/hadoop": true,
	enginePath:            true,
}

func runLoopcancel(pass *Pass) []Diag {
	p := pass.Pkg
	if !loopcancelScope[p.ImportPath] && !strings.HasPrefix(p.ImportPath, "fixtures/") {
		return nil
	}
	info := p.Info

	// Polling closure: functions that directly poll a lifecycle, plus
	// everything that statically reaches one — so a loop body calling
	// q.write (which checks x.lc.Err three frames down) counts as polling.
	seed := make(map[*types.Func]bool)
	for _, fd := range funcDecls(p) {
		obj := declObj(info, fd)
		if obj == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && directPoll(info, call) {
				seed[obj] = true
				return false
			}
			return true
		})
	}
	polling := sameScopeCallClosure(p, seed)

	var diags []Diag
	for _, fd := range funcDecls(p) {
		if !lifecycleReachable(info, fd) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			body, rangeVal := loopBody(n)
			if body == nil {
				return true
			}
			recv := recordLoopReceiver(info, body, rangeVal)
			if recv == nil {
				return true
			}
			if !loopPolls(info, body, polling) {
				diags = append(diags, Diag{Pos: n.Pos(), Message: "per-record loop cannot observe job cancellation; poll lc.Err() in the loop"})
			}
			return true
		})
	}
	return diags
}

// loopBody returns a for/range statement's body, plus the range value
// variable (nil otherwise).
func loopBody(n ast.Node) (*ast.BlockStmt, *ast.Ident) {
	switch l := n.(type) {
	case *ast.ForStmt:
		return l.Body, nil
	case *ast.RangeStmt:
		id, _ := l.Value.(*ast.Ident)
		return l.Body, id
	}
	return nil, nil
}

// recordLoopReceiver reports whether body pumps a module iterator —
// contains a niladic .Next() call on a module-typed receiver — returning
// the receiver expression. A Next on the loop's own range variable is the
// bounded source-priming pattern (one advance per source), not a record
// pump, and is skipped.
func recordLoopReceiver(info *types.Info, body *ast.BlockStmt, rangeVal *ast.Ident) ast.Expr {
	var recv ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		if recv != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Next" {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || !isModulePath(fn.Pkg().Path()) {
			return true
		}
		if rangeVal != nil {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok &&
				identObj(info, id) != nil && identObj(info, id) == identObj(info, rangeVal) {
				return true
			}
		}
		recv = sel.X
		return false
	})
	return recv
}

// directPoll reports whether call observes a lifecycle: Err/Done/Kill on
// a *engine.JobLifecycle.
func directPoll(info *types.Info, call *ast.CallExpr) bool {
	fn := staticCallee(info, call)
	if fn == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil && isLifecycle(sig.Recv().Type()) {
		switch fn.Name() {
		case "Err", "Done", "Kill":
			return true
		}
	}
	return false
}

// loopPolls reports whether the loop body observes cancellation: a direct
// lifecycle poll or a call into the package's polling closure.
func loopPolls(info *types.Info, body *ast.BlockStmt, polling map[*types.Func]bool) bool {
	polls := false
	ast.Inspect(body, func(n ast.Node) bool {
		if polls {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if directPoll(info, call) {
			polls = true
			return false
		}
		if fn := staticCallee(info, call); fn != nil && polling[fn] {
			polls = true
			return false
		}
		return true
	})
	return polls
}

// lifecycleReachable reports whether fd can see a JobLifecycle: an
// expression of that type anywhere in its body, or a receiver/parameter
// whose struct type transitively holds a *JobLifecycle field (depth ≤ 3,
// module structs only) — e.g. sortBuffer.run -> jobRun.lc.
func lifecycleReachable(info *types.Info, fd *ast.FuncDecl) bool {
	reach := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if reach {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[e]; ok && isLifecycle(tv.Type) {
			reach = true
			return false
		}
		return true
	})
	if reach {
		return true
	}
	var params []*ast.Field
	if fd.Recv != nil {
		params = append(params, fd.Recv.List...)
	}
	if fd.Type.Params != nil {
		params = append(params, fd.Type.Params.List...)
	}
	seen := make(map[*types.Named]bool)
	for _, f := range params {
		if tv, ok := info.Types[f.Type]; ok && holdsLifecycle(tv.Type, 3, seen) {
			return true
		}
	}
	return false
}

// holdsLifecycle reports whether a module struct type transitively
// contains a *JobLifecycle field within the depth bound.
func holdsLifecycle(t types.Type, depth int, seen map[*types.Named]bool) bool {
	if isLifecycle(t) {
		return true
	}
	if depth == 0 {
		return false
	}
	n := namedOf(t)
	if n == nil || seen[n] {
		return false
	}
	if pkg := n.Obj().Pkg(); pkg == nil || !isModulePath(pkg.Path()) {
		return false
	}
	seen[n] = true
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if holdsLifecycle(st.Field(i).Type(), depth-1, seen) {
			return true
		}
	}
	return false
}
