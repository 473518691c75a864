package lint

import "strings"

// detflow is the interprocedural half of detwallclock and detrand: forward
// taint from nondeterminism sources (wall-clock reads, math/rand) into the
// sinks whose output must be a pure function of the seed. The per-package
// halves already flag unblessed sources at their sites; what only a
// whole-program view can catch is a *blessed* source — legitimate
// overhead accounting — sitting in the callee cone of a trace or flight
// writer, where its value would be serialized into an artifact that the
// byte-identity gates compare across runs.
//
// Sink roots are the repo's serialization entry points: exported Write*,
// Encode*, and Flush/Record functions in internal/trace and the flight
// recorder and trace exporter in internal/telemetry.

// writerSink reports whether n is a trace/flight writer root.
func writerSink(n *Node) bool {
	pkgPath := ""
	if n.Fn.Pkg() != nil {
		pkgPath = n.Fn.Pkg().Path()
	}
	name := n.Fn.Name()
	exported := name != "" && name[0] >= 'A' && name[0] <= 'Z'
	if !exported || n.File.Test {
		return false
	}
	switch {
	case pathHasSuffix(pkgPath, "internal/trace"):
		return strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Encode") || strings.HasPrefix(name, "Append")
	case pathHasSuffix(pkgPath, "internal/telemetry"):
		return strings.HasPrefix(name, "Write") || name == "Record" || name == "Flush"
	}
	return false
}

// traceWriterWall reports blessed wall-clock reads in each writer's own
// body and in the cone below each of its call edges.
func traceWriterWall(pass *Pass) {
	g := pass.Prog.Graph()
	for _, root := range g.Nodes {
		if writerSink(root) {
			report := func(v *Visit) { reportWriterWall(pass, root, v) }
			report(&Visit{Node: root})
			g.edgeCones(root, followWriter, report)
		}
	}
}

// followWriter prunes the writer cone: nested sink roots are audited on
// their own, and test helpers never feed committed artifacts.
func followWriter(e *Edge) bool {
	return !writerSink(e.Callee) && !e.Callee.File.Test
}

func reportWriterWall(pass *Pass, root *Node, v *Visit) {
	for _, w := range v.Node.Facts().wall {
		if !w.blessed {
			continue // flagged at its site by the per-package check
		}
		if v.Via == nil {
			// The writer's own body: a blessed read here is just as much a
			// leak into the artifact as one a call deep.
			pass.Reportf(w.pos, "trace/flight writer %s contains a //maya:wallclock-blessed read time.%s; blessed accounting must never feed serialized artifacts", root.Decl.Name.Name, w.name)
			continue
		}
		pass.Reportf(v.Path()[0].Pos, "trace/flight writer %s reaches a //maya:wallclock-blessed read time.%s at %s (%s); blessed accounting must never feed serialized artifacts",
			root.Decl.Name.Name, w.name, pass.Prog.relPos(w.pos), v.Chain())
	}
}

// traceWriterRand traces math/rand uses — which survive in the tree only
// under an audited //nolint:maya/detrand suppression — into the
// determinism sinks: //maya:cachekey derivations are covered by the
// cachekey cone walk, so this walk covers the trace/flight writers.
func traceWriterRand(pass *Pass) {
	g := pass.Prog.Graph()
	for _, root := range g.Nodes {
		if writerSink(root) {
			g.edgeCones(root, followWriter, func(v *Visit) { reportWriterRand(pass, root, v) })
		}
	}
}

func reportWriterRand(pass *Pass, root *Node, v *Visit) {
	for _, pos := range v.Node.Facts().mathRand {
		pass.Reportf(v.Path()[0].Pos, "trace/flight writer %s reaches a math/rand use at %s (%s); suppressed math/rand must stay out of serialized artifacts",
			root.Decl.Name.Name, pass.Prog.relPos(pos), v.Chain())
	}
}
