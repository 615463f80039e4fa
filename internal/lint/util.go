package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// enginePath is the package that declares the budget pool, run readers,
// and the job lifecycle — several analyzers key off its types.
const enginePath = "m3r/internal/engine"

// isModulePath reports whether an import path belongs to the analyzed
// module or to the fixture corpus (fixture packages stand in for module
// packages in analyzer tests).
func isModulePath(path string) bool {
	return path == "m3r" || strings.HasPrefix(path, "m3r/") || strings.HasPrefix(path, "fixtures/")
}

// namedOf unwraps aliases and at most one pointer to the underlying named
// type, or nil.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// typeIs reports whether t (through aliases and one pointer) is the named
// type pkgPath.name.
func typeIs(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// isLifecycle reports whether t is (*)engine.JobLifecycle.
func isLifecycle(t types.Type) bool {
	return t != nil && typeIs(t, enginePath, "JobLifecycle")
}

// hasCloseError reports whether t's method set (or its pointer's, for an
// addressable named value) includes Close() error.
func hasCloseError(t types.Type) bool {
	if closeMethod(t) {
		return true
	}
	if n := namedOf(t); n != nil {
		if _, isPtr := types.Unalias(t).(*types.Pointer); !isPtr {
			return closeMethod(types.NewPointer(n))
		}
	}
	return false
}

func closeMethod(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok || fn.Name() != "Close" {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
			sig.Results().At(0).Type().String() == "error" {
			return true
		}
	}
	return false
}

// staticCallee resolves a call expression to the function or method it
// statically invokes, or nil for interface dispatch through a non-method
// expression, function values, conversions, and builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// parentMap maps every node under root to its parent.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// funcDecls yields each function declaration with a body, paired with its
// file.
func funcDecls(p *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// declObj returns the *types.Func a declaration defines.
func declObj(info *types.Info, fd *ast.FuncDecl) *types.Func {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	return fn
}

// sameScopeCallClosure computes the set of package functions from which a
// function in seed is reachable through statically resolvable same-package
// calls: the fixpoint of "calls a function already in the set". Calls made
// from function literals count toward the enclosing declaration.
func sameScopeCallClosure(p *Package, seed map[*types.Func]bool) map[*types.Func]bool {
	closure := make(map[*types.Func]bool, len(seed))
	for fn := range seed {
		closure[fn] = true
	}
	callees := make(map[*types.Func][]*types.Func)
	for _, fd := range funcDecls(p) {
		caller := declObj(p.Info, fd)
		if caller == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := staticCallee(p.Info, call); callee != nil && callee.Pkg() == p.Types {
				callees[caller] = append(callees[caller], callee)
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for caller, cs := range callees {
			if closure[caller] {
				continue
			}
			for _, c := range cs {
				if closure[c] {
					closure[caller] = true
					changed = true
					break
				}
			}
		}
	}
	return closure
}

// identObj resolves an identifier to its object, through either a use or a
// definition.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
