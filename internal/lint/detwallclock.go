package lint

import "go/ast"

// DetWallclock flags wall-clock reads (time.Now, time.Since) outside sites
// annotated //maya:wallclock. The mask stream, the controller, and every
// experiment report must be a pure function of the seed; a wall-clock read
// in a decision path silently breaks trace reproducibility. Overhead
// accounting that measures the host (and never feeds back into decisions)
// is legitimate — annotate it, which doubles as an audit trail of every
// place real time enters the system.
// The interprocedural half (detflow.go) additionally walks the callee
// cones of trace/flight writers: there even a *blessed* read is a finding,
// because accounting values must never be serialized into artifacts the
// byte-identity gates compare.
var DetWallclock = &Analyzer{
	Name: "detwallclock",
	Doc:  "time.Now/time.Since outside //maya:wallclock sites; blessed reads reachable from trace/flight writers",
	Run:  runDetWallclock,
}

func runDetWallclock(pass *Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				pkgPath, name := pkg.callPkgFunc(call)
				if pkgPath != "time" || (name != "Now" && name != "Since") {
					return true
				}
				if pkg.blessed(f, call.Pos(), DirWallclock) {
					return true
				}
				pass.Reportf(call.Pos(), "wall-clock read time.%s outside a //maya:wallclock site; decisions and reports must be functions of the seed", name)
				return true
			})
		}
	}
	traceWriterWall(pass)
}
