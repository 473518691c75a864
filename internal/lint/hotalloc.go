package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc enforces allocation hygiene in functions annotated
// //maya:hotpath — the telemetry instruments and the per-tick engine step,
// which run every 20 ms control period and are covered by a zero-alloc
// benchmark gate. Inside a hot path the analyzer flags:
//
//   - calls into fmt (formatting allocates and reflects);
//   - string concatenation (every + on non-constant strings allocates);
//   - boxing a concrete value into an interface — as a call argument, an
//     assignment, or a return value — which allocates once the value
//     escapes. Constants are exempt: they box to static data the compiler
//     emits at build time.
//
// Since the interprocedural engine landed, the charge is transitive: a hot
// path is also responsible for allocations anywhere in its callee cone
// (static and concrete-method edges). The diagnostic lands on the call
// edge leaving the hot function and carries the blame chain down to the
// allocation site. Callees that are themselves //maya:hotpath are audited
// on their own and skipped; //maya:coldpath marks a deliberately cold
// callee (panic formatting, error paths) that the cone walk must not
// charge.
//
// The benchmark gate catches regressions at run time on one input; this
// catches them at review time on every path.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//maya:hotpath functions must not allocate (fmt, string building, interface boxing), transitively through their callee cone",
	Run:  runHotAlloc,
}

// allocKind classifies one allocation site for message rendering.
type allocKind int

const (
	allocFmt allocKind = iota
	allocConcat
	allocBox
)

// allocSite is one allocation found in a function body.
type allocSite struct {
	pos  token.Pos
	kind allocKind
	// fmt: a = function name. box: a = context ("argument", ...),
	// b = boxed type, c = interface type.
	a, b, c string
}

// direct renders the message for a site in the annotated function itself.
func (s allocSite) direct(fn string) string {
	switch s.kind {
	case allocFmt:
		return fmt.Sprintf("fmt.%s in hot path %s allocates and reflects; move formatting off the per-tick path", s.a, fn)
	case allocConcat:
		return fmt.Sprintf("string concatenation in hot path %s allocates; precompute or use a fixed buffer", fn)
	default:
		return fmt.Sprintf("%s boxes %s into %s in hot path %s; boxing allocates when the value escapes", s.a, s.b, s.c, fn)
	}
}

// short renders the site for transitive blame messages.
func (s allocSite) short() string {
	switch s.kind {
	case allocFmt:
		return "fmt." + s.a + " call"
	case allocConcat:
		return "string concatenation"
	default:
		return fmt.Sprintf("%s boxing %s into %s", s.a, s.b, s.c)
	}
}

// runHotAlloc reports each //maya:hotpath function's own allocation sites,
// then charges it for allocations in its callee cone. One diagnostic per
// call edge leaving the hot function keeps the report readable: it names
// the first allocation site (by BFS depth) with its blame chain and counts
// the rest.
func runHotAlloc(pass *Pass) {
	g := pass.Prog.Graph()
	for _, root := range g.Nodes {
		if !root.Pkg.funcDirective(root.Decl, DirHotpath) {
			continue
		}
		for _, site := range root.Facts().allocs {
			pass.Reportf(site.pos, "%s", site.direct(root.Decl.Name.Name))
		}
		// Walk each out-edge's cone separately so blame lands on the edge.
		for _, e := range root.Out {
			if !followHot(e) {
				continue
			}
			var first *Visit
			var firstSite allocSite
			count := 0
			g.Cone(&Visit{Node: e.Callee, Via: e}, followHot, func(v *Visit) bool {
				for _, site := range v.Node.Facts().allocs {
					count++
					if first == nil {
						first, firstSite = v, site
					}
				}
				return true
			})
			if first == nil {
				continue
			}
			more := ""
			if count > 1 {
				more = fmt.Sprintf(" (+%d more allocation sites in the cone)", count-1)
			}
			pass.Reportf(e.Pos, "call to %s in hot path %s reaches an allocation: %s at %s (%s)%s",
				e.Callee.Name(), root.Decl.Name.Name, firstSite.short(),
				pass.Prog.relPos(firstSite.pos), first.Chain(), more)
		}
	}
}

// followHot prunes the hot-cone walk: only static and concrete-method
// edges are followed (interface and function-value dispatch over-
// approximate too wildly to charge), and callees annotated //maya:hotpath
// (audited on their own) or //maya:coldpath (asserted cold) stop the walk.
func followHot(e *Edge) bool {
	if e.Kind != KindStatic {
		return false
	}
	callee := e.Callee
	if callee.Pkg.funcDirective(callee.Decl, DirHotpath) || callee.Pkg.funcDirective(callee.Decl, DirColdpath) {
		return false
	}
	// Test-only callees never run on the production tick.
	return !callee.File.Test
}

// collectAllocs gathers the allocation sites in fd's body (closures
// included): fmt calls, non-constant string concatenation, and interface
// boxing at call arguments, assignments, conversions, and returns.
func collectAllocs(pkg *Package, fd *ast.FuncDecl) []allocSite {
	var out []allocSite
	var results *types.Tuple
	if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		results = obj.Type().(*types.Signature).Results()
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			out = append(out, allocsFromCall(pkg, v)...)
		case *ast.BinaryExpr:
			if v.Op == token.ADD && isString(pkg.typeOf(v)) && !isConstant(pkg, v) {
				out = append(out, allocSite{pos: v.OpPos, kind: allocConcat})
			}
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return true // multi-value form; types come from the call
			}
			for i, rhs := range v.Rhs {
				lhsType := pkg.typeOf(v.Lhs[i])
				if v.Tok == token.DEFINE {
					if id, ok := v.Lhs[i].(*ast.Ident); ok {
						if obj := pkg.Info.Defs[id]; obj != nil {
							lhsType = obj.Type()
						}
					}
				}
				out = appendBox(out, pkg, rhs, lhsType, "assignment")
			}
		case *ast.ReturnStmt:
			if results == nil || len(v.Results) != results.Len() {
				return true
			}
			for i, res := range v.Results {
				out = appendBox(out, pkg, res, results.At(i).Type(), "return")
			}
		}
		return true
	})
	return out
}

// allocsFromCall flags fmt calls and arguments boxed into interface
// parameters.
func allocsFromCall(pkg *Package, call *ast.CallExpr) []allocSite {
	var out []allocSite
	if pkgPath, name := pkg.callPkgFunc(call); pkgPath == "fmt" {
		return append(out, allocSite{pos: call.Pos(), kind: allocFmt, a: name})
	}
	// Conversions: T(x) where T is an interface type boxes x.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && types.IsInterface(tv.Type) {
			out = appendBox(out, pkg, call.Args[0], tv.Type, "conversion")
		}
		return out
	}
	sig, ok := typeAsSignature(pkg.typeOf(call.Fun))
	if !ok {
		return out
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // forwarding a slice, no per-element boxing
			}
			paramType = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			paramType = params.At(i).Type()
		}
		out = appendBox(out, pkg, arg, paramType, "argument")
	}
	return out
}

func appendBox(out []allocSite, pkg *Package, expr ast.Expr, target types.Type, context string) []allocSite {
	if target == nil || !types.IsInterface(target) {
		return out
	}
	argType := pkg.typeOf(expr)
	if argType == nil || types.IsInterface(argType.Underlying()) {
		return out
	}
	if b, ok := argType.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return out
	}
	// Constants convert to interface via static data the compiler emits at
	// build time — panic("literal"), sink(42) — no runtime allocation.
	if isConstant(pkg, expr) {
		return out
	}
	return append(out, allocSite{
		pos: expr.Pos(), kind: allocBox,
		a: context, b: argType.String(), c: target.String(),
	})
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstant(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Value != nil
}
