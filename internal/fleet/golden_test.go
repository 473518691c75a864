package fleet_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/fleet/difftest"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/workload"
)

// goldenFleetPath pins a 16-tenant, 512-tick Maya GS fleet run: the flight
// records of all tenants, flushed in tenant order with a header line per
// tenant.
const goldenFleetPath = "testdata/fleet_sys1_gs_16x512.jsonl"

// goldenFleetTrace produces the trace the golden file pins. Every knob here
// (seed, tenant count, ticks, workload scale) is part of the file's
// identity — change one and the file must be regenerated.
func goldenFleetTrace(t *testing.T) []byte {
	t.Helper()
	cfg := sim.Sys1()
	art, err := difftest.DesignFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := core.DefaultGuard(cfg)
	results := fleet.New(fleet.Spec{
		Config:         cfg,
		Kind:           defense.MayaGS,
		Art:            art,
		PeriodTicks:    20,
		Tenants:        16,
		BaseSeed:       0x90d1,
		NewWorkload:    func() workload.Workload { return workload.NewApp("blackscholes").Scale(0.05) },
		Guard:          &g,
		FlightCapacity: 512/20 + 8,
		MaxTicks:       512,
	}).Run()

	var buf bytes.Buffer
	for tn, res := range results {
		buf.WriteString("# tenant " + strconv.Itoa(tn) + "\n")
		if err := res.Flight.Flush(&buf); err != nil {
			t.Fatalf("tenant %d flight flush: %v", tn, err)
		}
	}
	return buf.Bytes()
}

// TestGoldenFleetTrace pins the fleet pipeline end to end — seed
// derivation, the machine bank's tick loop, the per-tenant decisions and
// actuation, and the per-tenant flight encoding — to a committed byte-exact
// trace, the fleet counterpart of internal/core's TestGoldenFlightTrace.
// The differential suite proves fleet == scalar for the cases it runs;
// this file additionally pins both against history, so a drift that
// changed scalar and fleet paths in lockstep still fails loudly.
//
// To regenerate after an INTENTIONAL change:
//
//	MAYA_UPDATE_GOLDEN=1 go test ./internal/fleet -run TestGoldenFleetTrace
func TestGoldenFleetTrace(t *testing.T) {
	got := goldenFleetTrace(t)
	if os.Getenv("MAYA_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenFleetPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFleetPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenFleetPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenFleetPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with MAYA_UPDATE_GOLDEN=1): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("fleet trace diverged from golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("fleet trace length changed: got %d lines, golden %d", len(gl), len(wl))
}

// TestGoldenFleetTraceParses guards the reader side: each tenant's section
// of the committed trace must round-trip through telemetry.ReadFlight.
func TestGoldenFleetTraceParses(t *testing.T) {
	raw, err := os.ReadFile(goldenFleetPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with MAYA_UPDATE_GOLDEN=1): %v", err)
	}
	sections := bytes.Split(raw, []byte("# tenant "))[1:]
	if len(sections) != 16 {
		t.Fatalf("golden trace has %d tenant sections, want 16", len(sections))
	}
	for tn, sec := range sections {
		body := sec[bytes.IndexByte(sec, '\n')+1:]
		recs, skipped, err := telemetry.ReadFlight(bytes.NewReader(body))
		if err != nil || skipped != 0 {
			t.Fatalf("tenant %d section unreadable: %d skipped, err %v", tn, skipped, err)
		}
		// Step 0 plus one record per 20-tick period over 512 ticks.
		if len(recs) != 512/20+1 {
			t.Fatalf("tenant %d has %d records, want %d", tn, len(recs), 512/20+1)
		}
		for i, rec := range recs {
			if rec.Step != i {
				t.Fatalf("tenant %d record %d has step %d", tn, i, rec.Step)
			}
			if rec.Rejected || rec.StateReinit {
				t.Fatalf("nominal golden trace carries fault flags: tenant %d step %d: %+v", tn, i, rec)
			}
		}
	}
}
