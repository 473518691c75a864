package lint

import "testing"

// BenchmarkLintRepo measures a full whole-program analysis of the module:
// load + type-check, call-graph construction, and all ten analyzers. It is
// in the CI benchdiff gate so a quadratic blow-up in the graph builder or
// a fact-collection regression shows up as a wall-clock diff, not as a
// mysteriously slow lint job.
func BenchmarkLintRepo(b *testing.B) {
	root, _, err := findModule(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := Load(root, []string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		if diags := Run(prog, Analyzers()); len(diags) != 0 {
			b.Fatalf("repo not lint-clean during benchmark: %d findings", len(diags))
		}
	}
}
