package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden tests load the fixture packages under testdata/src and check
// the analyzers' output against // want "regexp" comments: every diagnostic
// must match a want on its exact file:line, and every want must be matched
// by exactly one diagnostic. A single comment may carry several quoted
// clauses when one line produces several findings.

var wantClauseRe = regexp.MustCompile(`"([^"]*)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	src  string
	used bool
}

// parseWants extracts the expectations from every fixture file's comments.
// The clause list may trail other comment content (the nolint fixtures put
// wants after the directive under test).
func parseWants(t *testing.T, pkgs []*Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.AST.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "want ")
					if idx < 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantClauseRe.FindAllStringSubmatch(c.Text[idx:], -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, src: m[1]})
					}
				}
			}
		}
	}
	return out
}

func TestGoldenDiagnostics(t *testing.T) {
	root := filepath.Join("testdata", "src")
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no fixture packages loaded")
	}
	diags := Run(pkgs, Analyzers())
	wants := parseWants(t, pkgs)

	// Group by fixture directory so each analyzer's fixture is a named
	// subtest, keeping one Load (and one shared importer) for all of them.
	byDir := func(file string) string { return filepath.Base(filepath.Dir(file)) }
	fixtures := map[string]bool{}
	for _, pkg := range pkgs {
		fixtures[filepath.Base(pkg.Dir)] = true
	}
	for name := range fixtures {
		t.Run(name, func(t *testing.T) {
			for _, d := range diags {
				if byDir(d.File) != name {
					continue
				}
				matched := false
				for _, w := range wants {
					if w.used || w.file != d.File || w.line != d.Line || !w.re.MatchString(d.Message) {
						continue
					}
					w.used = true
					matched = true
					break
				}
				if !matched {
					t.Errorf("unexpected diagnostic:\n  %s", d)
				}
			}
			for _, w := range wants {
				if !w.used && byDir(w.file) == name {
					t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.src)
				}
			}
		})
	}
}

// TestRepoIsClean is the self-check: the tree that ships this linter must
// itself be clean under it. This is the same gate scripts/lint.sh applies
// in CI, run as a plain test so `go test ./...` catches regressions too:
// any finding fails.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	root, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(pkgs, Analyzers()) {
		t.Errorf("repo not lint-clean:\n  %s", d)
	}
}
