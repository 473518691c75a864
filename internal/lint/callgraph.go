package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
)

// This file is the interprocedural half of the framework: a whole-program
// call graph over go/types, built once per Program and shared by every
// analyzer that walks it. Nodes are the program's declared functions and
// methods (generic instantiations collapse onto their origin); edges
// record the call site so diagnostics can carry per-edge blame chains.
// Three resolution strategies cover the repo's call shapes:
//
//   - static: direct function calls and concrete-receiver method calls,
//     resolved by go/types object identity — Load checks each directory
//     once and resolves module imports to those same units, so a function
//     is one *types.Func wherever it is referenced;
//   - interface: calls through an interface method link to every module
//     method with the same name and signature (class-hierarchy style);
//   - value: calls through function-typed variables, parameters, and
//     struct fields link to every module function whose address is taken
//     somewhere in the program with a matching signature (RTA style).
//     Method values (x.M) and function-typed field assignments register
//     the target as address-taken.
//
// Interface and value edges are deliberately imprecise (they
// over-approximate); analyzers choose per rule whether to follow them.

// Program is the packages Load matched, with the call graph and function
// facts every analyzer shares.
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet
	// Root is the module root directory, for rendering positions in
	// diagnostics relative to the repository.
	Root string
	// owner maps a file path to the unit that type-checked it, so every
	// diagnostic routes to the right suppression index.
	owner map[string]*Package
	graph *CallGraph
}

// Graph builds (once) and returns the whole-program call graph, so runs
// of purely per-package analyzers pay nothing for it.
func (pr *Program) Graph() *CallGraph {
	if pr.graph == nil {
		pr.graph = buildGraph(pr)
	}
	return pr.graph
}

// EdgeKind classifies how a call site was resolved to its callee.
type EdgeKind int

const (
	// KindStatic is a direct call of a declared function or a method call
	// on a concrete receiver.
	KindStatic EdgeKind = iota
	// KindInterface is a call through an interface method, linked to every
	// implementation by name+signature.
	KindInterface
	// KindValue is an indirect call through a function-typed value, linked
	// to every address-taken function of matching signature.
	KindValue
)

// Edge is one resolved call site.
type Edge struct {
	Caller *Node
	Callee *Node
	Pos    token.Pos
	Kind   EdgeKind
	// Spawned marks a call that starts a goroutine (go f(...)); the callee
	// runs concurrently, so e.g. its blocking behavior does not block the
	// caller.
	Spawned bool
}

// Node is one declared function or method in the module.
type Node struct {
	Key  string // canonical symbol ("pkg.F", "(*pkg.T).M"); unique per graph
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	File *File
	Out  []*Edge
	In   []*Edge

	facts *funcFacts
}

// Name renders the node for diagnostics, with the module prefix trimmed.
func (n *Node) Name() string {
	return trimModule(n.Key)
}

func trimModule(s string) string {
	// "(github.com/maya-defense/maya/internal/mat.Matrix).At" →
	// "(internal/mat.Matrix).At"; the prefix may sit inside receiver parens,
	// so cut it wherever it appears rather than only at the front.
	if i := strings.Index(s, "internal/"); i > 0 {
		return s[:strings.IndexFunc(s, func(r rune) bool { return r != '(' && r != '*' })] + s[i:]
	}
	return s
}

// CallGraph is the whole-program call graph.
type CallGraph struct {
	Nodes []*Node // deterministic order: package, file, declaration
	byFn  map[*types.Func]*Node
	// addrTaken maps a signature key to nodes whose address escapes into a
	// function value somewhere in the program.
	addrTaken map[string][]*Node
	// methods maps name+signature to concrete method nodes, for
	// interface-call resolution.
	methods map[string][]*Node
}

// NodeOf returns the graph node for a declared function, or nil.
func (g *CallGraph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.byFn[fn.Origin()]
}

func buildGraph(pr *Program) *CallGraph {
	g := &CallGraph{
		byFn:      map[*types.Func]*Node{},
		addrTaken: map[string][]*Node{},
		methods:   map[string][]*Node{},
	}
	// Pass 1: nodes for every declared function with a body.
	for _, pkg := range pr.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue // type error; lenient loading
				}
				n := &Node{Key: fn.FullName(), Fn: fn, Decl: fd, Pkg: pkg, File: f}
				g.byFn[fn] = n
				g.Nodes = append(g.Nodes, n)
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && !types.IsInterface(recv.Type()) {
					mk := methodKey(fn.Name(), fn.Type().(*types.Signature))
					g.methods[mk] = append(g.methods[mk], n)
				}
			}
		}
	}
	// Pass 2: address-taken registration, so value edges see the full set.
	for _, n := range g.Nodes {
		g.collectAddrTaken(n)
	}
	// Pass 3: edges.
	for _, n := range g.Nodes {
		g.collectEdges(n)
	}
	return g
}

// collectAddrTaken registers every function referenced as a value (not in
// call position) inside n's body.
func (g *CallGraph) collectAddrTaken(n *Node) {
	pkg := n.Pkg
	callFuns := map[ast.Node]bool{}
	ast.Inspect(n.Decl, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.CallExpr:
			fun := ast.Unparen(v.Fun)
			callFuns[fun] = true
			if ix, ok := fun.(*ast.IndexExpr); ok {
				fun = ast.Unparen(ix.X)
				callFuns[fun] = true
			} else if ix, ok := fun.(*ast.IndexListExpr); ok {
				fun = ast.Unparen(ix.X)
				callFuns[fun] = true
			}
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				callFuns[sel.Sel] = true
			}
		case *ast.Ident:
			if !callFuns[v] {
				g.registerValue(pkg, v)
			}
		case *ast.SelectorExpr:
			if !callFuns[v] && !callFuns[v.Sel] {
				g.registerValue(pkg, v.Sel)
			}
		}
		return true
	})
}

func (g *CallGraph) registerValue(pkg *Package, id *ast.Ident) {
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	target := g.NodeOf(fn)
	if target == nil {
		return
	}
	sk := sigKey(fn.Origin().Type().(*types.Signature))
	for _, existing := range g.addrTaken[sk] {
		if existing == target {
			return
		}
	}
	g.addrTaken[sk] = append(g.addrTaken[sk], target)
}

// collectEdges resolves every call site in n's body.
func (g *CallGraph) collectEdges(n *Node) {
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(n.Decl, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.GoStmt:
			goCalls[v.Call] = true
		case *ast.CallExpr:
			g.resolveCall(n, v, goCalls[v])
		}
		return true
	})
}

func (g *CallGraph) resolveCall(n *Node, call *ast.CallExpr, spawned bool) {
	pkg := n.Pkg
	if fn := pkg.calleeFunc(call); fn != nil {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return
		}
		if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
			// Interface dispatch: link to every same-name, same-signature
			// concrete method in the module.
			for _, callee := range g.methods[methodKey(fn.Name(), sig)] {
				g.addEdge(n, callee, call.Lparen, KindInterface, spawned)
			}
			return
		}
		if callee := g.NodeOf(fn); callee != nil {
			g.addEdge(n, callee, call.Lparen, KindStatic, spawned)
		}
		return
	}
	// Indirect call through a function value (variable, parameter, field,
	// or call result).
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := typeAsSignature(pkg.typeOf(call.Fun))
	if !ok {
		return
	}
	for _, callee := range g.addrTaken[sigKey(sig)] {
		g.addEdge(n, callee, call.Lparen, KindValue, spawned)
	}
}

func (g *CallGraph) addEdge(caller, callee *Node, pos token.Pos, kind EdgeKind, spawned bool) {
	e := &Edge{Caller: caller, Callee: callee, Pos: pos, Kind: kind, Spawned: spawned}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// methodKey identifies a method by name and receiver-less signature, the
// matching rule for interface dispatch. Signatures match as
// package-path-qualified strings: identical signatures written in two
// places are distinct *types.Signature values, so a string is the map key.
func methodKey(name string, sig *types.Signature) string {
	return name + "|" + sigKey(sig)
}

// sigKey renders a signature's parameter and result types (receiver
// excluded) as a canonical string.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	qual := func(p *types.Package) string { return p.Path() }
	b.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), qual))
	}
	b.WriteByte(')')
	if sig.Variadic() {
		b.WriteString("...")
	}
	b.WriteByte('(')
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), qual))
	}
	b.WriteByte(')')
	return b.String()
}

// Visit is one node reached during a cone walk, with the edge path back to
// the root for blame rendering.
type Visit struct {
	Node *Node
	Via  *Edge
	prev *Visit
}

// Path returns the edges from the root to this visit, in call order.
func (v *Visit) Path() []*Edge {
	var rev []*Edge
	for cur := v; cur != nil && cur.Via != nil; cur = cur.prev {
		rev = append(rev, cur.Via)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Chain renders "a → b → c" for diagnostics (caller of the first edge
// through every callee).
func (v *Visit) Chain() string {
	path := v.Path()
	if len(path) == 0 {
		return v.Node.Name()
	}
	var b strings.Builder
	b.WriteString(path[0].Caller.Name())
	for _, e := range path {
		b.WriteString(" → ")
		b.WriteString(e.Callee.Name())
	}
	return b.String()
}

// Cone walks the callee cone of start.Node in breadth-first order, start
// included, following only edges accepted by follow, and calls visit for
// each node the first time it is reached. Paths chain through start, so a
// seeded start (carrying the edge from the true root) yields full blame
// chains. A nil follow accepts every edge; visit returning false prunes
// the walk below that node.
func (g *CallGraph) Cone(start *Visit, follow func(*Edge) bool, visit func(*Visit) (descend bool)) {
	if !visit(start) {
		return
	}
	seen := map[*Node]bool{start.Node: true}
	queue := []*Visit{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range cur.Node.Out {
			if seen[e.Callee] || (follow != nil && !follow(e)) {
				continue
			}
			seen[e.Callee] = true
			next := &Visit{Node: e.Callee, Via: e, prev: cur}
			if visit(next) {
				queue = append(queue, next)
			}
		}
	}
}

// edgeCones visits, for each of root's out-edges that follow accepts, the
// cone below that edge: one walk per edge, so a node reached through two
// edges is visited, and blamed, once per edge.
func (g *CallGraph) edgeCones(root *Node, follow func(*Edge) bool, visit func(*Visit)) {
	for _, e := range root.Out {
		if follow(e) {
			g.Cone(&Visit{Node: e.Callee, Via: e}, follow, func(v *Visit) bool {
				visit(v)
				return true
			})
		}
	}
}

// relPos renders a position relative to the module root for diagnostics.
func (pr *Program) relPos(pos token.Pos) string {
	p := pr.Fset.Position(pos)
	file := p.Filename
	if pr.Root != "" {
		if rel, err := filepath.Rel(pr.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
	}
	return file + ":" + strconv.Itoa(p.Line)
}
