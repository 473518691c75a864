package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxProp flags dropped context propagation. A function that receives a
// context.Context owns a cancellation scope: work it starts belongs to
// that scope. Two ways of silently leaving the scope are flagged:
//
//   - passing context.Background() or context.TODO() to a callee while a
//     Context parameter is in scope — the callee outlives the caller's
//     cancellation, so shutdown leaves it running;
//   - spawning a goroutine whose body blocks (channel ops, selects,
//     WaitGroup.Wait, sleeps) without receiving or capturing any in-scope
//     Context — nothing can ever interrupt the block, which is how the
//     runner's drain path ends up waiting on a goroutine that cannot be
//     told to stop.
//
// Goroutines that never block are exempt: a fire-and-forget computation
// that runs to completion needs no cancellation hook.
var CtxProp = &Analyzer{
	Name: "ctxprop",
	Doc:  "context.Background()/TODO() passed, or a blocking goroutine spawned, while a context.Context is in scope",
	Run:  runCtxProp,
}

func runCtxProp(pass *Pass) {
	g := pass.Prog.Graph()
	for _, n := range g.Nodes {
		ctxParams := contextParams(n.Fn)
		if len(ctxParams) == 0 {
			continue
		}
		checkCtxFunc(pass, g, n, ctxParams)
	}
}

// contextParams returns the *types.Var parameters of fn whose type is
// context.Context (including the receiver, for methods carrying one —
// none in this module, but cheap to cover).
func contextParams(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			out = append(out, params.At(i))
		}
	}
	return out
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func checkCtxFunc(pass *Pass, g *CallGraph, n *Node, ctxParams []*types.Var) {
	pkg := n.Pkg
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.CallExpr:
			for _, arg := range v.Args {
				if name := freshContextCall(pkg, arg); name != "" {
					pass.Reportf(arg.Pos(), "context.%s() passed to a callee while %s is in scope; propagate the caller's context so cancellation reaches the callee", name, ctxParams[0].Name())
				}
			}
		case *ast.GoStmt:
			checkSpawn(pass, g, n, v, ctxParams)
			// Descend: nested go statements and calls inside the spawned
			// body still run under the same lexical scope.
		}
		return true
	})
}

// freshContextCall reports "Background" or "TODO" if e is a direct call to
// the corresponding context constructor.
func freshContextCall(pkg *Package, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	pkgPath, name := pkg.callPkgFunc(call)
	if pkgPath == "context" && (name == "Background" || name == "TODO") {
		return name
	}
	return ""
}

// checkSpawn flags a go statement whose goroutine blocks but neither
// receives nor captures any in-scope Context.
func checkSpawn(pass *Pass, g *CallGraph, n *Node, stmt *ast.GoStmt, ctxParams []*types.Var) {
	pkg := n.Pkg
	// Receives the context as an argument?
	for _, arg := range stmt.Call.Args {
		if exprUsesContext(pkg, arg, ctxParams) {
			return
		}
	}
	switch fun := ast.Unparen(stmt.Call.Fun).(type) {
	case *ast.FuncLit:
		if exprUsesContext(pkg, fun.Body, ctxParams) {
			return
		}
		if !litBlocks(pkg, fun) {
			return
		}
		pass.Reportf(stmt.Pos(), "goroutine blocks but ignores in-scope context %s; pass it in so cancellation can interrupt the block", ctxParams[0].Name())
	default:
		// Named function or method value: consult its facts through the
		// graph. A callee that takes its own Context parameter is exempt
		// even if the caller passed a different one — that is a wiring
		// choice, not a dropped scope.
		fn := pkg.calleeFunc(stmt.Call)
		if fn == nil || len(contextParams(fn)) > 0 {
			return
		}
		callee := g.NodeOf(fn)
		if callee == nil {
			return
		}
		if !nodeBlocks(g, callee) {
			return
		}
		pass.Reportf(stmt.Pos(), "goroutine %s blocks but receives no context (in-scope: %s); thread the context through so cancellation can interrupt it", callee.Name(), ctxParams[0].Name())
	}
}

// exprUsesContext reports whether any identifier under e resolves to one
// of the in-scope Context parameters, or any expression under it has
// Context type (covers ctx fields and derived contexts).
func exprUsesContext(pkg *Package, e ast.Node, ctxParams []*types.Var) bool {
	found := false
	ast.Inspect(e, func(node ast.Node) bool {
		if found {
			return false
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		for _, p := range ctxParams {
			if obj == p {
				found = true
				return false
			}
		}
		if v, ok := obj.(*types.Var); ok && isContextType(v.Type()) {
			found = true
			return false
		}
		return true
	})
	return found
}

// litBlocks reports whether a spawned function literal contains a blocking
// operation: channel send/receive, select without default, range over a
// channel, WaitGroup.Wait, or time.Sleep. Nested literals spawned by their
// own go statements are excluded — they are separate goroutines.
func litBlocks(pkg *Package, lit *ast.FuncLit) bool {
	blocks := false
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		if blocks {
			return false
		}
		switch v := node.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SendStmt:
			blocks = true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				blocks = true
			}
		case *ast.SelectStmt:
			if !selectHasDefault(v) {
				blocks = true
			}
		case *ast.RangeStmt:
			if chanUnder(pkg.typeOf(v.X)) {
				blocks = true
			}
		case *ast.CallExpr:
			if tname, mname, ok := pkg.syncMethodCall(v); ok && tname == "WaitGroup" && mname == "Wait" {
				blocks = true
			}
			if pkgPath, name := pkg.callPkgFunc(v); pkgPath == "time" && name == "Sleep" {
				blocks = true
			}
		}
		return !blocks
	})
	return blocks
}

// nodeBlocks reports whether the node or its static, same-goroutine callee
// cone contains a blocking operation.
func nodeBlocks(g *CallGraph, n *Node) bool {
	start := &Visit{Node: n}
	v, _ := findBlocking(g, start)
	return v != nil
}
