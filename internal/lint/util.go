package lint

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves a call's callee to the declared function or method
// it invokes, unwrapping explicit generic instantiation (f[T](...)); nil
// for builtins, conversions, function values, and missing type information.
func (p *Package) calleeFunc(call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var fn *types.Func
	switch v := fun.(type) {
	case *ast.Ident:
		fn, _ = p.Info.Uses[v].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = p.Info.Uses[v.Sel].(*types.Func)
	}
	return fn
}

// callPkgFunc returns the package path and name of a called package-level
// function ("time", "Now"), or "" when the call is not a direct package
// function call (method calls return the receiver's package path).
func (p *Package) callPkgFunc(call *ast.CallExpr) (pkgPath, name string) {
	fn := p.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// isMethodCall reports whether call invokes a method, and if so returns the
// defining package path and the method name.
func (p *Package) isMethodCall(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	selection, found := p.Info.Selections[sel]
	if !found || selection.Kind() != types.MethodVal {
		return "", "", false
	}
	fn := selection.Obj()
	if fn.Pkg() == nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// syncMethodCall reports whether call invokes a method on a sync type
// (sync.Mutex, sync.RWMutex, sync.WaitGroup, sync.Cond, ...), returning
// the receiver type's name and the method name. Embedded sync fields
// resolve here too: the selection's obj is still the sync method.
func (p *Package) syncMethodCall(call *ast.CallExpr) (typeName, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	selection, found := p.Info.Selections[sel]
	if !found || selection.Kind() != types.MethodVal {
		return "", "", false
	}
	fn := selection.Obj()
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	return named.Obj().Name(), fn.Name(), true
}

// typeOf returns the expression's type, or nil.
func (p *Package) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isFloat reports whether t is (an alias of) a floating-point basic type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isRNGStream reports whether t is *rng.Stream from this module.
func isRNGStream(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Stream" && obj.Pkg() != nil && pathHasSuffix(obj.Pkg().Path(), "internal/rng")
}

// chanUnder reports whether t's underlying type is a channel.
func chanUnder(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// pathHasSuffix matches an import path suffix on path-segment boundaries.
func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	n := len(path) - len(suffix)
	return n > 0 && path[n-1] == '/' && path[n:] == suffix
}

// rootIdent unwraps selectors, indexes, stars, and parens to the base
// identifier of an lvalue-ish expression ("x" in x.f[i]), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.CallExpr:
			// Unwrap conversions like byName(s) used in sort.Sort(byName(s)).
			if len(v.Args) == 1 {
				e = v.Args[0]
				continue
			}
			return nil
		default:
			return nil
		}
	}
}

// isBuiltin reports whether the call invokes the named builtin.
func (p *Package) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}
