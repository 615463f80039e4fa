package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Reservecheck enforces budget-reservation pairing on the engine pool:
// every JobBudget/BudgetPool Reserve or ReserveEvicting must (a) have its
// admission result checked, and (b) sit in a function from which a
// matching Release or Drain is reachable through same-package calls — or, failing that, in a package that drains
// its budgets at end of job (the cleanup backstop the pool's
// drain-to-zero harnesses assert). The pool's own package is exempt: it
// is the mechanism, not a consumer.
var Reservecheck = &Analyzer{
	Name: "reservecheck",
	Doc:  "budget Reserve/ReserveEvicting must check admission and reach a Release/Drain",
	Run:  runReservecheck,
}

var budgetTypes = map[string]bool{"JobBudget": true, "BudgetPool": true}

func runReservecheck(pass *Pass) []Diag {
	p := pass.Pkg
	if p.ImportPath == enginePath {
		return nil
	}
	info := p.Info

	// Releaser closure: functions that directly release or drain budget
	// bytes, plus everything that statically reaches one.
	seed := make(map[*types.Func]bool)
	packageDrains := false
	for _, fd := range funcDecls(p) {
		obj := declObj(info, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(info, call)
			if fn == nil {
				return true
			}
			if isBudgetMethod(fn, "Release") || isBudgetMethod(fn, "Drain") {
				if obj != nil {
					seed[obj] = true
				}
				if isBudgetMethod(fn, "Drain") {
					packageDrains = true
				}
			}
			return true
		})
	}
	releasers := sameScopeCallClosure(p, seed)

	var diags []Diag
	for _, fd := range funcDecls(p) {
		obj := declObj(info, fd)
		parents := parentMap(fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(info, call)
			if fn == nil || !(isBudgetMethod(fn, "Reserve") || isBudgetMethod(fn, "ReserveEvicting")) {
				return true
			}
			diags = append(diags, admissionDiags(parents, call, fn)...)
			if !releasers[obj] && !packageDrains {
				diags = append(diags, Diag{Pos: call.Pos(), Message: fmt.Sprintf(
					"%s reserves budget bytes but no Release/Drain is reachable from here and package %s never drains a budget; reserved bytes would leak",
					fn.Name(), p.Types.Name())})
			}
			return true
		})
	}
	return diags
}

// admissionDiags flags Reserve-family calls whose admission (or error)
// results are discarded: an unchecked reservation either leaks bytes on
// the false path or double-books them on the true path.
func admissionDiags(parents map[ast.Node]ast.Node, call *ast.CallExpr, fn *types.Func) []Diag {
	switch p := parents[call].(type) {
	case *ast.ExprStmt:
		return []Diag{{Pos: call.Pos(), Message: fmt.Sprintf(
			"admission result of %s ignored; reserve only proceeds when it returns true", fn.Name())}}
	case *ast.AssignStmt:
		var diags []Diag
		blank := func(i int) bool {
			if i >= len(p.Lhs) {
				return false
			}
			id, ok := p.Lhs[i].(*ast.Ident)
			return ok && id.Name == "_"
		}
		if blank(0) {
			diags = append(diags, Diag{Pos: call.Pos(), Message: fmt.Sprintf(
				"admission result of %s discarded", fn.Name())})
		}
		if fn.Name() == "ReserveEvicting" && blank(2) {
			diags = append(diags, Diag{Pos: call.Pos(), Message: "error result of ReserveEvicting discarded; eviction failures must surface"})
		}
		return diags
	}
	return nil
}

// isBudgetMethod reports whether fn is the named method on the engine's
// JobBudget or BudgetPool.
func isBudgetMethod(fn *types.Func, name string) bool {
	if fn.Name() != name {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	n := namedOf(sig.Recv().Type())
	return n != nil && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == enginePath && budgetTypes[n.Obj().Name()]
}
