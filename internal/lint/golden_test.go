package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
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

// loadFixtures loads and type-checks testdata/src once per test binary;
// the golden and call-graph tests share the Program.
var loadFixtures = sync.OnceValues(func() (*Program, error) {
	return Load(filepath.Join("testdata", "src"), []string{"./..."})
})

func fixtureProgram(t *testing.T) *Program {
	t.Helper()
	prog, err := loadFixtures()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestGoldenDiagnostics(t *testing.T) {
	prog := fixtureProgram(t)
	if len(prog.Pkgs) == 0 {
		t.Fatal("no fixture packages loaded")
	}
	diags := Run(prog, Analyzers())
	wants := parseWants(t, prog.Pkgs)

	// Group by fixture directory so each analyzer's fixture is a named
	// subtest, keeping one Load for all of them.
	byDir := func(file string) string { return filepath.Base(filepath.Dir(file)) }
	fixtures := map[string]bool{}
	for _, pkg := range prog.Pkgs {
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
	prog, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(prog, Analyzers()) {
		t.Errorf("repo not lint-clean:\n  %s", d)
	}
}
