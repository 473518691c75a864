package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestNolintReport lists the nolint fixture's five directives, the
// reason-less one among them; rejecting it is Run's job
// (TestGoldenDiagnostics).
func TestNolintReport(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "src"), []string{"./nolint"})
	if err != nil {
		t.Fatal(err)
	}
	entries := NolintReport(prog.Pkgs, "")
	if len(entries) != 5 {
		t.Fatalf("entries = %d, want 5:\n%+v", len(entries), entries)
	}
	reasonless := 0
	for _, e := range entries {
		if len(e.Analyzers) == 0 {
			t.Errorf("%s:%d: entry with no analyzers", e.File, e.Line)
		}
		if strings.Contains(e.File, "\\") || filepath.IsAbs(e.File) {
			t.Errorf("entry file %q is not a relative forward-slash path", e.File)
		}
		if e.Reason == "" {
			reasonless++
		}
	}
	if reasonless != 1 {
		t.Errorf("%d entries without a reason, want the fixture's one:\n%+v", reasonless, entries)
	}
}
