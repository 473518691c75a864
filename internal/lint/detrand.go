package lint

import "strconv"

// DetRand flags any import of math/rand (v1 or v2). Non-test code must
// draw from internal/rng so every stochastic component owns a named,
// seed-derived stream; tests must too, so a failing property test
// reproduces bit-for-bit from its logged seed.
// The interprocedural half (detflow.go) traces any math/rand use that
// survives under an audited //nolint suppression through the call graph
// into the trace/flight writers, where it would corrupt reproducible
// artifacts.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "math/rand is banned; use internal/rng so streams are seed-derived and reproducible",
	Run:  runDetRand,
}

func runDetRand(pass *Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			for _, imp := range f.AST.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if path == "math/rand" || path == "math/rand/v2" {
					pass.Reportf(imp.Pos(), "import of %s; use internal/rng (seed-derived, splittable streams) instead", path)
				}
			}
		}
	}
	traceWriterRand(pass)
}
