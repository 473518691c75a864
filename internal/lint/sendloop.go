package lint

import (
	"go/ast"
	"go/types"
)

// SendLoop flags sends on provably-unbuffered channels inside hot loops:
// the body of a //maya:hotpath function, or a range-over-channel loop
// (the shape of every tick consumer in the runner). An unbuffered send
// blocks until a receiver is ready, so one slow consumer stalls the whole
// loop — in a per-tick pipeline that is a deadline miss amplifier. Buffer
// the channel to decouple producer and consumer, or move the send off the
// per-tick path.
//
// Only channels this function provably made unbuffered are flagged — a
// local `make(chan T)` or `make(chan T, 0)` — because a channel received
// as a parameter may be buffered by the caller. Sends inside a select are
// exempt: select makes the blocking explicit and usually pairs the send
// with a cancellation case.
var SendLoop = &Analyzer{
	Name: "sendloop",
	Doc:  "send on a provably-unbuffered channel inside a //maya:hotpath loop or range-over-channel tick loop",
	Run:  runSendLoop,
}

func runSendLoop(pass *Pass) {
	g := pass.Prog.Graph()
	for _, n := range g.Nodes {
		unbuffered := unbufferedChans(n)
		if len(unbuffered) == 0 {
			continue
		}
		hot := n.Pkg.funcDirective(n.Decl, DirHotpath)
		checkSendLoops(pass, n, unbuffered, hot)
	}
}

// unbufferedChans collects the local variables in n's body bound to a
// make(chan T) with no capacity or a constant zero capacity.
func unbufferedChans(n *Node) map[types.Object]bool {
	pkg := n.Pkg
	out := map[types.Object]bool{}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		asg, ok := node.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i, rhs := range asg.Rhs {
			if !isUnbufferedMake(pkg, rhs) {
				continue
			}
			id, ok := asg.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pkg.Info.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := pkg.Info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

func isUnbufferedMake(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "make" {
		return false
	}
	if b, ok := pkg.Info.Uses[fun].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	if len(call.Args) == 0 || !chanUnder(pkg.typeOf(call.Args[0])) {
		return false
	}
	if len(call.Args) == 1 {
		return true
	}
	tv, ok := pkg.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

// checkSendLoops walks the loops of n and flags unbuffered sends inside
// loops that qualify as hot: any loop when the function is //maya:hotpath,
// else only range-over-channel loops.
func checkSendLoops(pass *Pass, n *Node, unbuffered map[types.Object]bool, hot bool) {
	pkg := n.Pkg
	var walk func(node ast.Node, inHotLoop bool, loopKind string)
	walk = func(node ast.Node, inHotLoop bool, loopKind string) {
		ast.Inspect(node, func(inner ast.Node) bool {
			if inner == node {
				return true
			}
			switch v := inner.(type) {
			case *ast.FuncLit:
				// A literal's body runs on its own schedule (often a
				// spawned goroutine); its sends are not this loop's sends.
				return false
			case *ast.SelectStmt:
				// Sends under select are explicit about blocking; walk only
				// the clause bodies so a send in a case guard is exempt but
				// a bare send in a case body still counts.
				for _, clause := range v.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							walk(s, inHotLoop, loopKind)
						}
					}
				}
				return false
			case *ast.ForStmt:
				kind := loopKind
				in := inHotLoop || hot
				if hot && kind == "" {
					kind = "//maya:hotpath loop"
				}
				walk(v.Body, in, kind)
				return false
			case *ast.RangeStmt:
				kind := loopKind
				in := inHotLoop || hot
				if chanUnder(pkg.typeOf(v.X)) {
					in = true
					if kind == "" {
						kind = "range-over-channel loop"
					}
				} else if hot && kind == "" {
					kind = "//maya:hotpath loop"
				}
				walk(v.Body, in, kind)
				return false
			case *ast.SendStmt:
				if !inHotLoop {
					return true
				}
				id, ok := ast.Unparen(v.Chan).(*ast.Ident)
				if !ok {
					return true
				}
				obj := pkg.Info.Uses[id]
				if obj == nil || !unbuffered[obj] {
					return true
				}
				pass.Reportf(v.Arrow, "send on unbuffered channel %s inside a %s; an unready receiver stalls every iteration — buffer the channel or move the send off the per-tick path", id.Name, loopKind)
			}
			return true
		})
	}
	walk(n.Decl.Body, false, "")
}
