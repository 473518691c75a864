package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/maya-defense/maya/internal/workload"
)

// TestRecordResolvesCatalogNames records workloads through the same name
// grammar mayactl and mayad accept, including the instruction loops and
// idle, and rejects a name that grammar does not know.
func TestRecordResolvesCatalogNames(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"blackscholes", "video/tractor", "web/google", "instr/imul", "idle"} {
		out := filepath.Join(dir, "trace.csv")
		if err := doRecord(name, out, 0.05, 0.2, 1); err != nil {
			t.Fatalf("record %s: %v", name, err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		demands, err := workload.ReadDemandsCSV(f)
		f.Close()
		if err != nil {
			t.Fatalf("record %s: reading back: %v", name, err)
		}
		if len(demands) != 50 {
			t.Fatalf("record %s: %d demands, want 50", name, len(demands))
		}
	}
	if err := doRecord("nosuchapp", filepath.Join(dir, "bad.csv"), 0.05, 0.2, 1); err == nil {
		t.Fatal("recording an unknown workload succeeded")
	}
}

// TestPlayRejectsUnknownNames checks -machine and -defense resolve through
// the shared preset and design lookups.
func TestPlayRejectsUnknownNames(t *testing.T) {
	if err := doPlay("unused.csv", "sys9", "gs", 1, 1, false); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if err := doPlay("unused.csv", "sys1", "nosuchdefense", 1, 1, false); err == nil {
		t.Fatal("unknown defense accepted")
	}
}
