package lint

import (
	"strings"
	"testing"
)

// loadCallgraphFixture returns the whole-program graph over the fixture
// tree, built once per test binary.
func loadCallgraphFixture(t *testing.T) *CallGraph {
	t.Helper()
	return fixtureProgram(t).Graph()
}

// nodeBySuffix finds the unique node whose key ends in suffix.
func nodeBySuffix(t *testing.T, g *CallGraph, suffix string) *Node {
	t.Helper()
	var found *Node
	for _, n := range g.Nodes {
		if strings.HasSuffix(n.Key, suffix) {
			if found != nil {
				t.Fatalf("node suffix %q is ambiguous: %s and %s", suffix, found.Key, n.Key)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no node with key suffix %q", suffix)
	}
	return found
}

// edgeTo returns the caller's edge to callee, or nil.
func edgeTo(caller, callee *Node) *Edge {
	for _, e := range caller.Out {
		if e.Callee == callee {
			return e
		}
	}
	return nil
}

func TestCallGraphGenericInstantiation(t *testing.T) {
	g := loadCallgraphFixture(t)
	useMap := nodeBySuffix(t, g, "callgraph.UseMap")
	mapFn := nodeBySuffix(t, g, "callgraph.Map")
	e := edgeTo(useMap, mapFn)
	if e == nil {
		t.Fatalf("no edge UseMap → Map; out-edges: %v", edgeKeys(useMap))
	}
	if e.Kind != KindStatic {
		t.Errorf("UseMap → Map kind = %v, want KindStatic", e.Kind)
	}
}

func TestCallGraphFunctionTypedField(t *testing.T) {
	g := loadCallgraphFixture(t)
	advance := nodeBySuffix(t, g, "callgraph.Ring).Advance")
	inc := nodeBySuffix(t, g, "callgraph.inc")
	dbl := nodeBySuffix(t, g, "callgraph.dbl")
	// r.step(x) dispatches through a func-typed field: both address-taken
	// functions of that signature are candidates.
	for _, callee := range []*Node{inc, dbl} {
		e := edgeTo(advance, callee)
		if e == nil {
			t.Errorf("no edge Advance → %s; out-edges: %v", callee.Key, edgeKeys(advance))
			continue
		}
		if e.Kind != KindValue {
			t.Errorf("Advance → %s kind = %v, want KindValue", callee.Key, e.Kind)
		}
	}
	// Counter.Add has a different signature (no result): not a candidate.
	add := nodeBySuffix(t, g, "callgraph.Counter).Add")
	if e := edgeTo(advance, add); e != nil {
		t.Errorf("unexpected edge Advance → Counter.Add (signature mismatch)")
	}
}

func TestCallGraphMethodValue(t *testing.T) {
	g := loadCallgraphFixture(t)
	drive := nodeBySuffix(t, g, "callgraph.Drive")
	add := nodeBySuffix(t, g, "callgraph.Counter).Add")
	// Bind returns c.Add as a method value; Drive's f(3) must reach it.
	e := edgeTo(drive, add)
	if e == nil {
		t.Fatalf("no edge Drive → Counter.Add; out-edges: %v", edgeKeys(drive))
	}
	if e.Kind != KindValue {
		t.Errorf("Drive → Counter.Add kind = %v, want KindValue", e.Kind)
	}
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	g := loadCallgraphFixture(t)
	apply := nodeBySuffix(t, g, "callgraph.Apply")
	step := nodeBySuffix(t, g, "callgraph.Unit).Step")
	e := edgeTo(apply, step)
	if e == nil {
		t.Fatalf("no edge Apply → Unit.Step; out-edges: %v", edgeKeys(apply))
	}
	if e.Kind != KindInterface {
		t.Errorf("Apply → Unit.Step kind = %v, want KindInterface", e.Kind)
	}
}

func TestCallGraphSpawnedEdges(t *testing.T) {
	g := loadCallgraphFixture(t)
	// The sendloop fixture spawns drain with `go drain(out)`.
	emit := nodeBySuffix(t, g, "sendloop.emit")
	drain := nodeBySuffix(t, g, "sendloop.drain")
	e := edgeTo(emit, drain)
	if e == nil {
		t.Fatalf("no edge emit → drain; out-edges: %v", edgeKeys(emit))
	}
	if !e.Spawned {
		t.Errorf("emit → drain not marked Spawned")
	}
}

func TestCallGraphCrossPackage(t *testing.T) {
	g := loadCallgraphFixture(t)
	// caller.Advance calls into the callgraph fixture package, which the
	// loader meets as an import before it reaches it as a pattern match.
	advance := nodeBySuffix(t, g, "caller.Advance")
	for _, suffix := range []string{"callgraph.NewRing", "callgraph.Ring).Advance"} {
		callee := nodeBySuffix(t, g, suffix)
		e := edgeTo(advance, callee)
		if e == nil {
			t.Errorf("no edge caller.Advance → %s; out-edges: %v", callee.Key, edgeKeys(advance))
			continue
		}
		if e.Kind != KindStatic {
			t.Errorf("caller.Advance → %s kind = %v, want KindStatic", callee.Key, e.Kind)
		}
	}
}

func TestCallGraphExternalTest(t *testing.T) {
	g := loadCallgraphFixture(t)
	// The callgraph fixture's external _test package calls its own package.
	ext := nodeBySuffix(t, g, ".TestUseMapFromOutside")
	useMap := nodeBySuffix(t, g, "callgraph.UseMap")
	e := edgeTo(ext, useMap)
	if e == nil {
		t.Fatalf("no edge TestUseMapFromOutside → UseMap; out-edges: %v", edgeKeys(ext))
	}
	if e.Kind != KindStatic {
		t.Errorf("TestUseMapFromOutside → UseMap kind = %v, want KindStatic", e.Kind)
	}
}

func edgeKeys(n *Node) []string {
	var out []string
	for _, e := range n.Out {
		out = append(out, e.Callee.Key)
	}
	return out
}
