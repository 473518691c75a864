package callgraph_test

import (
	"testing"

	"github.com/maya-defense/maya/internal/lint/testdata/src/callgraph"
)

// TestUseMapFromOutside is an external test calling its own package.
func TestUseMapFromOutside(t *testing.T) {
	if got := callgraph.UseMap([]int{2}); got[0] != 4 {
		t.Fatal(got)
	}
}
