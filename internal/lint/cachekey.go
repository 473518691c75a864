package lint

// CacheKey audits functions marked //maya:cachekey — the experiment-cache
// key-derivation sites. A cache key must be a pure function of (code
// version, configuration, seed): if a wall-clock read or a map's randomized
// iteration order reaches the hash, identical runs stop hitting (silent
// cache churn) or — worse — different runs start colliding. Inside a
// cachekey function the audit is stricter than the repo-wide rules: a
// //maya:wallclock blessing does NOT exempt a time.Now/time.Since call, and
// ranging over a map is banned outright rather than only when the body is
// order-sensitive, because everything computed here is on its way into the
// key.
// Since the interprocedural engine landed the audit is transitive: the
// same rules apply to everything a cachekey function can reach through the
// call graph (static, interface, and function-value edges), because a
// helper one call deep feeds the key exactly as directly-inlined code
// would. The diagnostic lands on the call edge inside the cachekey
// function and names the offending site with its blame chain.
var CacheKey = &Analyzer{
	Name: "cachekey",
	Doc:  "wall-clock or map-iteration input inside (or reachable from) //maya:cachekey key-derivation functions",
	Run:  runCacheKey,
}

// runCacheKey audits each cachekey function's own body, then walks its
// callee cone and reports reachable wall-clock reads (blessed or not —
// blessings do not apply under a key derivation), map ranges, and
// math/rand uses.
func runCacheKey(pass *Pass) {
	g := pass.Prog.Graph()
	for _, root := range g.Nodes {
		if !root.Pkg.funcDirective(root.Decl, DirCachekey) {
			continue
		}
		report := func(v *Visit) { reportKeyTaint(pass, root, v) }
		report(&Visit{Node: root})
		g.edgeCones(root, followKey, report)
	}
}

// followKey prunes the cachekey cone walk: nested cachekey functions are
// audited on their own, and test-only helpers never derive production
// keys.
func followKey(e *Edge) bool {
	callee := e.Callee
	if callee.Pkg.funcDirective(callee.Decl, DirCachekey) {
		return false
	}
	return !callee.File.Test
}

// reportKeyTaint reports v's facts: at depth 0, the derivation's own wall
// reads and map ranges at their sites; below it, every fact on the call
// edge leaving the derivation, with its blame chain.
func reportKeyTaint(pass *Pass, root *Node, v *Visit) {
	facts := v.Node.Facts()
	if v.Via == nil {
		for _, w := range facts.wall {
			pass.Reportf(w.pos, "wall-clock read time.%s inside a cache-key derivation; keys must be pure functions of code version, config, and seed (//maya:wallclock does not apply here)", w.name)
		}
		for _, pos := range facts.mapRanges {
			pass.Reportf(pos, "map range inside a cache-key derivation; iteration order is randomized per run — hash fields in declaration order or sort the keys outside")
		}
		return
	}
	edge := v.Path()[0]
	for _, w := range facts.wall {
		pass.Reportf(edge.Pos, "cache-key derivation %s reaches a wall-clock read time.%s at %s (%s); keys must be pure functions of code version, config, and seed (//maya:wallclock does not apply here)",
			root.Decl.Name.Name, w.name, pass.Prog.relPos(w.pos), v.Chain())
	}
	for _, pos := range facts.mapRanges {
		pass.Reportf(edge.Pos, "cache-key derivation %s reaches a map range at %s (%s); iteration order is randomized per run — hash fields in declaration order or sort the keys",
			root.Decl.Name.Name, pass.Prog.relPos(pos), v.Chain())
	}
	for _, pos := range facts.mathRand {
		pass.Reportf(edge.Pos, "cache-key derivation %s reaches a math/rand use at %s (%s); keys must be seed-derived via internal/rng",
			root.Decl.Name.Name, pass.Prog.relPos(pos), v.Chain())
	}
}
