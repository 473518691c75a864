package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockHold flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held: channel sends and receives, selects without a
// default, range-over-channel loops, sync.WaitGroup.Wait, and time.Sleep —
// plus, through the call graph, calls to module functions that block
// transitively. A lock held across a blocking operation couples every
// other lock user to an unrelated goroutine's progress; in a sharded tick
// scheduler that is a priority inversion that shows up as missed
// deadlines, and under shutdown it is how deadlocks assemble. The
// mutex-guarded seams of mayad — its spill ring, Server.mu, the telemetry
// registry — are the surfaces this rule protects.
//
// sync.Cond.Wait is deliberately exempt: a Cond waits with its lock held
// by design. Locks released on every path before the operation are
// tracked: an Unlock in a conditional branch keeps the lock held on the
// fallthrough analysis, which errs on the reporting side.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "mutex held across a channel operation, WaitGroup.Wait, sleep, or a transitively blocking call",
	Run:  runLockHold,
}

// heldLock is one currently-held mutex, keyed by the rendered receiver
// expression ("s.mu").
type heldLock struct {
	expr string
	pos  token.Pos // the Lock call
}

func runLockHold(pass *Pass) {
	g := pass.Prog.Graph()
	for _, n := range g.Nodes {
		lh := &lockWalker{pass: pass, g: g, node: n}
		lh.walkStmts(n.Decl.Body.List, map[string]heldLock{})
	}
}

type lockWalker struct {
	pass *Pass
	g    *CallGraph
	node *Node
}

// walkStmts processes a statement list in order, threading the set of held
// locks through it. Nested blocks inherit a copy: a lock taken inside a
// branch does not leak out, and an unlock inside a branch conservatively
// keeps the lock held after it.
func (w *lockWalker) walkStmts(list []ast.Stmt, held map[string]heldLock) {
	for _, stmt := range list {
		w.walkStmt(stmt, held)
	}
}

func (w *lockWalker) walkStmt(stmt ast.Stmt, held map[string]heldLock) {
	switch v := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := v.X.(*ast.CallExpr); ok && w.lockTransition(call, held) {
			return
		}
		w.checkExpr(v.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock runs at return: the lock stays held for the
		// remainder of the function, which is exactly what the walk models
		// by ignoring it. Other defers are checked as expressions (a
		// deferred blocking call runs while any still-held lock is held,
		// but modeling defer ordering is not worth the precision).
		if tname, mname, ok := w.node.Pkg.syncMethodCall(v.Call); ok && isMutexType(tname) && (mname == "Unlock" || mname == "RUnlock") {
			return
		}
		w.checkExpr(v.Call, held)
	case *ast.SendStmt:
		w.flagIfHeld(v.Arrow, "channel send", held)
		w.checkExpr(v.Chan, held)
		w.checkExpr(v.Value, held)
	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && w.lockTransition(call, held) {
				continue
			}
			w.checkExpr(rhs, held)
		}
		for _, lhs := range v.Lhs {
			w.checkExpr(lhs, held)
		}
	case *ast.IfStmt:
		if v.Init != nil {
			w.walkStmt(v.Init, held)
		}
		w.checkExpr(v.Cond, held)
		w.walkStmts(v.Body.List, copyHeld(held))
		if v.Else != nil {
			w.walkStmt(v.Else, copyHeld(held))
		}
	case *ast.BlockStmt:
		w.walkStmts(v.List, copyHeld(held))
	case *ast.ForStmt:
		if v.Init != nil {
			w.walkStmt(v.Init, held)
		}
		if v.Cond != nil {
			w.checkExpr(v.Cond, held)
		}
		w.walkStmts(v.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		if chanUnder(w.node.Pkg.typeOf(v.X)) {
			w.flagIfHeld(v.For, "range over channel", held)
		}
		w.checkExpr(v.X, held)
		w.walkStmts(v.Body.List, copyHeld(held))
	case *ast.SelectStmt:
		if !selectHasDefault(v) {
			w.flagIfHeld(v.Select, "select", held)
		}
		for _, clause := range v.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				w.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SwitchStmt:
		if v.Init != nil {
			w.walkStmt(v.Init, held)
		}
		if v.Tag != nil {
			w.checkExpr(v.Tag, held)
		}
		for _, clause := range v.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range v.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.ReturnStmt:
		for _, res := range v.Results {
			w.checkExpr(res, held)
		}
	case *ast.GoStmt:
		// The spawned goroutine does not run under the caller's locks; its
		// own body is analyzed when its function is visited. Nothing to
		// check here beyond argument evaluation.
		for _, arg := range v.Call.Args {
			w.checkExpr(arg, held)
		}
	case *ast.LabeledStmt:
		w.walkStmt(v.Stmt, held)
	}
}

// lockTransition updates the held set for Lock/Unlock calls and reports
// whether the call was one.
func (w *lockWalker) lockTransition(call *ast.CallExpr, held map[string]heldLock) bool {
	tname, mname, ok := w.node.Pkg.syncMethodCall(call)
	if !ok || !isMutexType(tname) {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	key := types.ExprString(sel.X)
	switch mname {
	case "Lock", "RLock":
		held[key] = heldLock{expr: key, pos: call.Pos()}
		return true
	case "Unlock", "RUnlock":
		delete(held, key)
		return true
	case "TryLock", "TryRLock":
		// The result decides whether the lock is held; treat as held to
		// err on the reporting side only when the call is a statement
		// (discarded result means it IS held on success with no release
		// tracking) — too rare to model; ignore.
		return true
	}
	return false
}

func isMutexType(name string) bool {
	return name == "Mutex" || name == "RWMutex"
}

// checkExpr scans an expression for blocking operations and blocking calls
// performed under held locks. Function literals are skipped: their bodies
// run when invoked, not where written (immediately-invoked literals are
// caught as calls through the graph's value edges).
func (w *lockWalker) checkExpr(expr ast.Expr, held map[string]heldLock) {
	if expr == nil || len(held) == 0 {
		return
	}
	ast.Inspect(expr, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				w.flagIfHeld(v.OpPos, "channel receive", held)
			}
		case *ast.CallExpr:
			w.checkCall(v, held)
		}
		return true
	})
}

// checkCall flags directly blocking calls (WaitGroup.Wait, time.Sleep) and
// calls into module functions whose cone blocks.
func (w *lockWalker) checkCall(call *ast.CallExpr, held map[string]heldLock) {
	pkg := w.node.Pkg
	if tname, mname, ok := pkg.syncMethodCall(call); ok {
		if tname == "WaitGroup" && mname == "Wait" {
			w.flagIfHeld(call.Pos(), "sync.WaitGroup.Wait", held)
		}
		return
	}
	if pkgPath, name := pkg.callPkgFunc(call); pkgPath == "time" && name == "Sleep" {
		w.flagIfHeld(call.Pos(), "time.Sleep", held)
		return
	}
	// Transitive: does the callee's cone contain a blocking operation on
	// the calling goroutine?
	callee := w.g.NodeOf(pkg.calleeFunc(call))
	if callee == nil || callee == w.node {
		return
	}
	start := &Visit{Node: callee, Via: &Edge{Caller: w.node, Callee: callee, Pos: call.Pos(), Kind: KindStatic}}
	if v, site := findBlocking(w.g, start); v != nil {
		lock := minHeld(held)
		w.pass.Reportf(call.Pos(), "call to %s blocks (%s at %s, via %s) while holding %s (locked at %s); shrink the critical section",
			callee.Name(), site.what, w.pass.Prog.relPos(site.pos), v.Chain(), lock.expr, w.pass.Prog.relPos(lock.pos))
	}
}

// findBlocking returns the first visit (BFS order) whose node blocks on
// the calling goroutine, with the site.
func findBlocking(g *CallGraph, start *Visit) (*Visit, *blockSite) {
	var found *Visit
	var site *blockSite
	g.Cone(start, func(e *Edge) bool {
		return e.Kind == KindStatic && !e.Spawned && !e.Callee.File.Test
	}, func(v *Visit) bool {
		if found != nil {
			return false
		}
		for i := range v.Node.Facts().blocks {
			if b := &v.Node.Facts().blocks[i]; !b.spawned {
				found, site = v, b
				return false
			}
		}
		return true
	})
	return found, site
}

func (w *lockWalker) flagIfHeld(pos token.Pos, what string, held map[string]heldLock) {
	if len(held) == 0 {
		return
	}
	lock := minHeld(held)
	w.pass.Reportf(pos, "%s while holding %s (locked at %s); shrink the critical section — a blocked %s stalls every other lock user",
		what, lock.expr, w.pass.Prog.relPos(lock.pos), what)
}

// minHeld picks the deterministic representative lock for the message.
func minHeld(held map[string]heldLock) heldLock {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return held[keys[0]]
}

func copyHeld(held map[string]heldLock) map[string]heldLock {
	out := make(map[string]heldLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}
