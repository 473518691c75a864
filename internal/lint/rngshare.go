package lint

import (
	"go/ast"
	"go/types"
)

// RNGShare is an escape analysis for RNG streams: it flags a *rng.Stream
// crossing a goroutine boundary — captured by a go-statement closure,
// passed as a go-call argument, sent over a channel, or smuggled inside a
// struct that crosses. Streams are single-owner by contract — concurrent
// draws race, and even a mutex would make the draw interleaving (and
// therefore every result derived from it) schedule-dependent. Goroutines
// must own a derived stream instead: rng.NewChild(seed, i) /
// parent.ChildAt(i).
//
// The interprocedural half summarizes, for every function, which of its
// *rng.Stream parameters escape across a goroutine boundary inside its
// body (directly or by forwarding to another escaping parameter — a
// fixpoint over the call graph), then flags every call site that feeds a
// stream into an escaping parameter, so a leak one call deep is charged
// where the stream's owner handed it away.
//
// Capturing a parent stream only to derive per-index children inside the
// goroutine via ChildAt is the documented safe pattern and is allowed.
var RNGShare = &Analyzer{
	Name: "rngshare",
	Doc:  "a *rng.Stream crossing a goroutine boundary (directly, via a struct, or via a callee that leaks its parameter) must be a derived child stream",
	Run:  runRNGShare,
}

func runRNGShare(pass *Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.SendStmt:
					if isRNGStream(pkg.typeOf(v.Value)) {
						pass.Reportf(v.Value.Pos(), "*rng.Stream sent over a channel; the receiver cannot know the stream's draw position — send a seed or derive a child stream")
					}
					reportStreamFields(pass, pkg, v.Value, "sent over a channel")
				case *ast.GoStmt:
					checkGoCall(pass, pkg, v.Call)
					for _, arg := range v.Call.Args {
						reportStreamFields(pass, pkg, arg, "passed to a goroutine")
					}
				}
				return true
			})
			checkFieldStores(pass, pkg, f)
		}
	}
	reportParamEscapes(pass)
}

// reportStreamFields flags composite literals carrying a *rng.Stream field
// inside an expression that crosses a goroutine boundary.
func reportStreamFields(pass *Pass, pkg *Package, expr ast.Expr, how string) {
	ast.Inspect(expr, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, elt := range lit.Elts {
			val := elt
			if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
				val = kv.Value
			}
			if isRNGStream(pkg.typeOf(val)) {
				pass.Reportf(val.Pos(), "struct carrying a *rng.Stream %s; the stream's draws would interleave with the owner — store a seed or a derived child stream", how)
			}
		}
		return true
	})
}

// checkFieldStores flags storing a *rng.Stream into a field of a value
// that is itself shared across a goroutine boundary in the same function:
// the classic build-struct-then-hand-to-goroutine leak.
func checkFieldStores(pass *Pass, pkg *Package, f *File) {
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		// Roots of values that cross a goroutine boundary in this function.
		shared := map[types.Object]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.GoStmt:
				for _, arg := range v.Call.Args {
					markRoot(pkg, shared, arg)
				}
				if lit, isLit := ast.Unparen(v.Call.Fun).(*ast.FuncLit); isLit {
					markFreeIdents(pkg, shared, lit)
				}
			case *ast.SendStmt:
				markRoot(pkg, shared, v.Value)
			}
			return true
		})
		if len(shared) == 0 {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				sel, isSel := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !isSel || !isRNGStream(pkg.typeOf(as.Rhs[i])) {
					continue
				}
				root := rootIdent(sel.X)
				if root == nil {
					continue
				}
				if obj := pkg.Info.Uses[root]; obj != nil && shared[obj] {
					pass.Reportf(as.Rhs[i].Pos(), "*rng.Stream stored in field %s of %s, which crosses a goroutine boundary in this function; store a seed or a derived child stream", sel.Sel.Name, root.Name)
				}
			}
			return true
		})
	}
}

func markRoot(pkg *Package, shared map[types.Object]bool, expr ast.Expr) {
	if id := rootIdent(expr); id != nil {
		if obj := pkg.Info.Uses[id]; obj != nil {
			shared[obj] = true
		}
	}
}

// markFreeIdents marks every identifier captured by the closure (declared
// outside it) as goroutine-shared.
func markFreeIdents(pkg *Package, shared map[types.Object]bool, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil || obj.Pos() == 0 {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // declared inside the closure
		}
		if _, isVar := obj.(*types.Var); isVar {
			shared[obj] = true
		}
		return true
	})
}

// reportParamEscapes computes, as a fixpoint over the call graph, which
// *rng.Stream parameters escape across a goroutine boundary inside each
// function, then flags the call sites that feed streams into them.
func reportParamEscapes(pass *Pass) {
	g := pass.Prog.Graph()
	esc := map[*Node]uint64{}
	// Seed: direct escapes inside each body.
	for _, n := range g.Nodes {
		if bits := directParamEscapes(n); bits != 0 {
			esc[n] = bits
		}
	}
	// Propagate: a parameter forwarded into an escaping parameter escapes.
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			add := forwardedEscapes(g, n, esc)
			if add&^esc[n] != 0 {
				esc[n] |= add
				changed = true
			}
		}
	}
	// Report call sites feeding an escaping parameter. Go-statement calls
	// are already flagged at the site by the per-package pass.
	for _, n := range g.Nodes {
		pkg := n.Pkg
		goCalls := map[*ast.CallExpr]bool{}
		ast.Inspect(n.Decl, func(node ast.Node) bool {
			switch v := node.(type) {
			case *ast.GoStmt:
				goCalls[v.Call] = true
			case *ast.CallExpr:
				if goCalls[v] {
					return true
				}
				callee := g.NodeOf(pkg.calleeFunc(v))
				if callee == nil || esc[callee] == 0 {
					return true
				}
				for i, arg := range v.Args {
					if i >= 64 || esc[callee]&(1<<uint(i)) == 0 {
						continue
					}
					if isRNGStream(pkg.typeOf(arg)) {
						pass.Reportf(arg.Pos(), "passing *rng.Stream to %s, which leaks parameter %d across a goroutine boundary; derive a child stream (rng.NewChild / ChildAt)",
							callee.Name(), i)
					}
				}
			}
			return true
		})
	}
}

// directParamEscapes returns a bitset of n's *rng.Stream parameters that
// cross a goroutine boundary inside its body.
func directParamEscapes(n *Node) uint64 {
	pkg := n.Pkg
	params := paramObjects(n)
	if len(params) == 0 {
		return 0
	}
	var bits uint64
	mark := func(expr ast.Expr) {
		id, ok := ast.Unparen(expr).(*ast.Ident)
		if !ok {
			return
		}
		obj := pkg.Info.Uses[id]
		for i, p := range params {
			if p != nil && obj == p && i < 64 {
				bits |= 1 << uint(i)
			}
		}
	}
	ast.Inspect(n.Decl, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.SendStmt:
			mark(v.Value)
		case *ast.GoStmt:
			for _, arg := range v.Call.Args {
				mark(arg)
			}
			if lit, ok := ast.Unparen(v.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(inner ast.Node) bool {
					id, isID := inner.(*ast.Ident)
					if !isID {
						return true
					}
					obj := pkg.Info.Uses[id]
					for i, p := range params {
						if p != nil && obj == p && i < 64 && !onlyChildAtUses(pkg, lit, id.Name) {
							bits |= 1 << uint(i)
						}
					}
					return true
				})
			}
		}
		return true
	})
	return bits
}

// forwardedEscapes returns the bits of n's stream parameters that are
// passed (as plain arguments, not go calls) into escaping parameters of
// callees.
func forwardedEscapes(g *CallGraph, n *Node, esc map[*Node]uint64) uint64 {
	pkg := n.Pkg
	params := paramObjects(n)
	if len(params) == 0 {
		return 0
	}
	var bits uint64
	ast.Inspect(n.Decl, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := g.NodeOf(pkg.calleeFunc(call))
		if callee == nil || esc[callee] == 0 {
			return true
		}
		for i, arg := range call.Args {
			if i >= 64 || esc[callee]&(1<<uint(i)) == 0 {
				continue
			}
			id, isID := ast.Unparen(arg).(*ast.Ident)
			if !isID {
				continue
			}
			obj := pkg.Info.Uses[id]
			for j, p := range params {
				if p != nil && obj == p && j < 64 {
					bits |= 1 << uint(j)
				}
			}
		}
		return true
	})
	return bits
}

// paramObjects returns the *types.Var for each *rng.Stream parameter of n
// (nil entries for other parameter types), indexed by position.
func paramObjects(n *Node) []types.Object {
	sig, ok := n.Fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := make([]types.Object, sig.Params().Len())
	any := false
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isRNGStream(p.Type()) {
			out[i] = p
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}

func checkGoCall(pass *Pass, pkg *Package, call *ast.CallExpr) {
	for _, arg := range call.Args {
		if isRNGStream(pkg.typeOf(arg)) {
			pass.Reportf(arg.Pos(), "*rng.Stream passed to a goroutine; draws would interleave with the owner — derive a child stream (rng.NewChild / ChildAt)")
		}
	}
	lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	// Free *rng.Stream variables of the closure: declared outside the
	// literal but used inside it.
	reported := map[string]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || reported[id.Name] {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil || !isRNGStream(obj.Type()) {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // declared inside the closure; owned by the goroutine
		}
		if onlyChildAtUses(pkg, lit, id.Name) {
			return true
		}
		reported[id.Name] = true
		pass.Reportf(id.Pos(), "goroutine closure captures *rng.Stream %q; draws would interleave with the owner — derive a child stream (rng.NewChild / ChildAt)", id.Name)
		return true
	})
}

// onlyChildAtUses reports whether every use of the captured stream inside
// the closure is a ChildAt call — the safe index-addressed derivation that
// never advances the parent.
func onlyChildAtUses(pkg *Package, lit *ast.FuncLit, name string) bool {
	safe := true
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != name {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil || !isRNGStream(obj.Type()) {
			return true
		}
		if !isChildAtReceiver(pkg, lit, id) {
			safe = false
		}
		return true
	})
	return safe
}

// isChildAtReceiver reports whether id appears exactly as the receiver of a
// r.ChildAt(...) call inside lit.
func isChildAtReceiver(pkg *Package, lit *ast.FuncLit, id *ast.Ident) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "ChildAt" {
			return true
		}
		if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok && base == id {
			found = true
		}
		return true
	})
	return found
}
