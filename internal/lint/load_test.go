package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module from path → source pairs and
// returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module example.com/m\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestLoadImportCycle checks that a cycle among module packages is a type
// error on the package that closes it, not endless recursion.
func TestLoadImportCycle(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport \"example.com/m/b\"\n\nvar X = b.Y\n",
		"b/b.go": "package b\n\nimport \"example.com/m/a\"\n\nvar Y = a.X\n",
	})
	prog, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Pkgs) != 2 {
		t.Fatalf("loaded %d packages, want a and b", len(prog.Pkgs))
	}
	var errs []string
	for _, pkg := range prog.Pkgs {
		for _, e := range pkg.TypeErrors {
			errs = append(errs, e.Error())
		}
	}
	if !strings.Contains(strings.Join(errs, "\n"), "import cycle through example.com/m/a") {
		t.Errorf("type errors do not name the cycle:\n%s", strings.Join(errs, "\n"))
	}
}

// TestLoadChecksDependenciesWithoutReporting checks that the fixtures'
// module imports (internal/rng, internal/telemetry and what they import)
// are type-checked for their importers but are not part of the Program.
func TestLoadChecksDependenciesWithoutReporting(t *testing.T) {
	prog := fixtureProgram(t)
	src, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range prog.Pkgs {
		if dir, err := filepath.Abs(pkg.Dir); err != nil || !strings.HasPrefix(dir, src) {
			t.Errorf("dependency %s (%s) is part of the Program", pkg.Path, pkg.Dir)
		}
		if len(pkg.TypeErrors) > 0 {
			t.Errorf("%s: %v", pkg.Path, pkg.TypeErrors)
		}
	}
}

// TestRunKeepsSuppressionMarksPerRun runs twice over one Program: the
// directive's floateq finding marks it used in the first Run, and the
// second, running maprange alone, must still report it unused.
func TestRunKeepsSuppressionMarksPerRun(t *testing.T) {
	root := writeModule(t, map[string]string{
		"p/p.go": "package p\n\nfunc eq(a, b float64) bool {\n\treturn a == b //nolint:maya/floateq,maya/maprange fixture reason\n}\n",
	})
	prog, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(prog, []*Analyzer{FloatEq, MapRange}); len(diags) != 0 {
		t.Fatalf("first Run: %v", diags)
	}
	diags := Run(prog, []*Analyzer{MapRange})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "unused nolint suppression") {
		t.Errorf("second Run = %v, want the unused suppression", diags)
	}
}
