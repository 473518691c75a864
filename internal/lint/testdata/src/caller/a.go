// Package caller is a call-graph fixture: it calls into another fixture
// package, which sorts after it, so the loader meets that package as an
// import before it reaches it as a pattern match. It is deliberately clean
// under every analyzer.
package caller

import "github.com/maya-defense/maya/internal/lint/testdata/src/callgraph"

// Advance calls across the package boundary.
func Advance(x int) int {
	return callgraph.NewRing().Advance(x)
}
