package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one project rule: a name (used in //nolint:maya/<name>
// directives and -run filters), a one-line description, and a run function
// that makes one pass over the whole Program — over its packages' syntax
// for the per-package checks, and over its call graph for the
// interprocedural ones.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Diagnostic is one finding, positioned for editors and CI annotations.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Pass is one analyzer's view of the program.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// NolintName is the pseudo-analyzer under which the framework reports
// problems with suppression directives themselves (unused, unknown, or
// without a reason). It cannot be suppressed.
const NolintName = "nolint"

// Analyzers returns every analyzer in the standard order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetWallclock,
		DetRand,
		MapRange,
		RNGShare,
		FloatEq,
		HotAlloc,
		CacheKey,
		LockHold,
		CtxProp,
		SendLoop,
	}
}

// Run applies the analyzers to the program, routes each finding to the
// package owning its file, resolves //nolint:maya/<name> suppressions
// there, reports unused, unknown or reason-less suppressions, and returns
// the surviving diagnostics sorted by position. Runs over one Program share
// its call graph and function facts and give the same result.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	var raw []Diagnostic
	for _, a := range analyzers {
		known[a.Name] = true
		a.Run(&Pass{Analyzer: a, Prog: prog, diags: &raw})
	}
	byPkg := make(map[*Package][]Diagnostic, len(prog.Pkgs))
	var out []Diagnostic
	for _, d := range raw {
		if pkg := prog.owner[d.File]; pkg != nil {
			byPkg[pkg] = append(byPkg[pkg], d)
		} else {
			out = append(out, d)
		}
	}
	for _, pkg := range prog.Pkgs {
		out = append(out, suppress(pkg, byPkg[pkg], known)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// suppress drops diagnostics covered by a nolint directive and reports
// directives that suppressed nothing (so stale annotations rot away instead
// of silently masking future findings), that name no known analyzer, or
// that give no reason: a suppression without one is a mute button, not an
// audit trail.
func suppress(pkg *Package, raw []Diagnostic, ran map[string]bool) []Diagnostic {
	registered := map[string]bool{}
	for _, a := range Analyzers() {
		registered[a.Name] = true
	}
	dirs := pkg.directives()
	// Marks stay local: the directive index is cached on the package and
	// shared by every Run over it.
	used := map[*nolintDirective]bool{}
	var out []Diagnostic
	for _, d := range raw {
		if nd := dirs.suppressing(d); nd != nil {
			used[nd] = true
			continue
		}
		out = append(out, d)
	}
	for _, nd := range dirs.nolints {
		if nd.reason == "" {
			out = append(out, Diagnostic{
				Analyzer: NolintName, File: nd.file, Line: nd.line, Col: nd.col,
				Message: fmt.Sprintf("suppression of maya/%s has no reason; write why beside the directive",
					strings.Join(nd.names, ",maya/")),
			})
		}
		relevant := false
		for _, name := range nd.names {
			if !registered[name] {
				out = append(out, Diagnostic{
					Analyzer: NolintName, File: nd.file, Line: nd.line, Col: nd.col,
					Message: fmt.Sprintf("nolint names unknown analyzer maya/%s", name),
				})
			}
			// A directive can only prove itself unused against analyzers
			// that actually ran; skip the check when filtering to a subset.
			if ran[name] {
				relevant = true
			}
		}
		if !used[nd] && relevant {
			out = append(out, Diagnostic{
				Analyzer: NolintName, File: nd.file, Line: nd.line, Col: nd.col,
				Message: "unused nolint suppression (no finding on this line)",
			})
		}
	}
	return out
}

// enclosingFunc returns the innermost function declaration containing pos,
// or nil. Function literals belong to their enclosing declaration.
func enclosingFunc(f *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
			return fd
		}
	}
	return nil
}
