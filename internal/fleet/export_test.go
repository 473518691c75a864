package fleet_test

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"strconv"
	"testing"

	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/sim"
)

// referenceCSV is the encoding/csv writer fleet.WriteCSV replaced, kept as
// the independent oracle for its bytes.
func referenceCSV(w io.Writer, results []fleet.TenantResult, ids []int) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"tenant", "time_s", "power_w", "target_w", "freq_ghz", "idle", "balloon"}); err != nil {
		return err
	}
	for i, res := range results {
		id := i
		if ids != nil {
			id = ids[i]
		}
		targets := res.Targets
		if res.FirstStep < len(targets) {
			targets = targets[res.FirstStep:]
		}
		for j, p := range res.DefenseSamples {
			row := []string{
				strconv.Itoa(id),
				strconv.FormatFloat(float64(j)*0.02, 'f', 2, 64),
				strconv.FormatFloat(p, 'f', 3, 64),
				"",
				"", "", "",
			}
			if j < len(targets) {
				row[3] = strconv.FormatFloat(targets[j], 'f', 3, 64)
			}
			if j < len(res.InputTrace) {
				in := res.InputTrace[j]
				row[4] = strconv.FormatFloat(in.FreqGHz, 'f', 1, 64)
				row[5] = strconv.FormatFloat(in.Idle, 'f', 2, 64)
				row[6] = strconv.FormatFloat(in.Balloon, 'f', 1, 64)
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func assertCSVMatchesReference(t *testing.T, results []fleet.TenantResult, ids []int) {
	t.Helper()
	var got, want bytes.Buffer
	if err := fleet.WriteCSV(&got, results, ids); err != nil {
		t.Fatal(err)
	}
	if err := referenceCSV(&want, results, ids); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.String(), want.String()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("WriteCSV differs from the encoding/csv reference at byte %d of %d/%d:\ngot  %q\nwant %q",
			i, len(g), len(w), g[i:min(len(g), i+80)], w[i:min(len(w), i+80)])
	}
}

// TestWriteCSVMatchesReference byte-compares WriteCSV with the encoding/csv
// reference on real fleet results, Maya and non-Maya, and on hand-built
// results reaching every branch: explicit ids, FirstStep past the start or
// past the end of Targets, short or missing Targets and InputTrace,
// non-finite, signed-zero and huge values, and more distinct knob values
// than any actuator ladder has.
func TestWriteCSVMatchesReference(t *testing.T) {
	cfg := sim.Sys1()
	t.Run("fleet", func(t *testing.T) {
		gs, _ := gsFleet(t, cfg, 3, 400, 0xc5f, defense.MayaGS)
		random, _ := gsFleet(t, cfg, 2, 400, 0xc5f, defense.RandomInputs)
		all := append(gs, random...)
		assertCSVMatchesReference(t, all, nil)
		assertCSVMatchesReference(t, all, []int{40, 7, 0, 12345, 3})
	})

	specials := []float64{
		0, math.Copysign(0, -1), -1.5, -0.0004, 0.0005, 0.0015, 2.675, 1e21, 1.5e21, -3e22,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	r := rng.NewNamed(3, "fleet/export-test")
	samples := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			if i < len(specials) {
				out[i] = specials[i]
			} else {
				out[i] = r.Uniform(-50, 150)
			}
		}
		return out
	}
	inputs := func(n int, distinct bool) []sim.Inputs {
		out := make([]sim.Inputs, n)
		for i := range out {
			if distinct {
				// Unquantized values: every row is a new memo key.
				out[i] = sim.Inputs{FreqGHz: r.Uniform(0, 4), Idle: r.Uniform(0, 1), Balloon: r.Uniform(-1, 1)}
			} else {
				out[i] = sim.Inputs{FreqGHz: 1.2 + 0.1*float64(i%9), Idle: 0.04 * float64(i%13), Balloon: 0.1 * float64(i%11)}
			}
			if i < len(specials) {
				s := specials[len(specials)-1-i]
				out[i].FreqGHz, out[i].Idle, out[i].Balloon = s, -s, s
			}
		}
		return out
	}
	results := []fleet.TenantResult{
		// FirstStep inside Targets; InputTrace one longer than the samples.
		{RunResult: sim.RunResult{DefenseSamples: samples(30), InputTrace: inputs(31, false), FirstStep: 5}, Targets: samples(40)},
		// FirstStep past the end of Targets leaves them unsliced.
		{RunResult: sim.RunResult{DefenseSamples: samples(20), InputTrace: inputs(21, false), FirstStep: 50}, Targets: samples(12)},
		// Nil Targets (non-Maya kinds) and a short InputTrace.
		{RunResult: sim.RunResult{DefenseSamples: samples(25), InputTrace: inputs(9, false)}},
		// Targets shorter than the samples after slicing; no InputTrace.
		{RunResult: sim.RunResult{DefenseSamples: samples(25), FirstStep: 2}, Targets: samples(10)},
		// More distinct knob values than the memo holds.
		{RunResult: sim.RunResult{DefenseSamples: samples(3000), InputTrace: inputs(3000, true)}, Targets: samples(3000)},
		// A tenant with nothing recorded.
		{},
	}
	t.Run("edge", func(t *testing.T) {
		assertCSVMatchesReference(t, results, nil)
		assertCSVMatchesReference(t, results, []int{9, 100000, 0, 3, 77, 2})
		assertCSVMatchesReference(t, nil, nil)
	})
}
