package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/maya-defense/maya/internal/experiments"
)

// tinySizes runs every workload and every layer probe in a few seconds.
func tinySizes() sizes {
	return sizes{
		uniformTenants: 1000, uniformTicks: 1000,
		mixedTenants: 15, mixedMinTicks: 200, mixedMaxTicks: 600,
		warmupTicks: 200,
		attackScale: experiments.Scale{Name: "tiny", RunsPerClass: 4, TraceTicks: 6000, WarmupTicks: 400,
			WorkloadScale: 0.15, Epochs: 3, AvgRuns: 4},
		suiteScale:  experiments.Small(),
		suiteFilter: regexp.MustCompile(`^(fig3|fig4|table1)$`),
		warmReplays: 20,
		bankProbes:  2,
	}
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared reads BENCHMARK.json at the repository root.
func declared(t *testing.T) (names []string, endToEnd, perLayer []declaredMetric) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	return names, bm.EndToEnd, bm.PerLayer
}

// TestDeclarations checks BENCHMARK.json against mayabench: the same
// workloads in the same order, and a per-layer metric for every suite
// entry, which the tiny-size runs below cannot all reach.
func TestDeclarations(t *testing.T) {
	names, _, perLayer := declared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, mayabench has %d", len(names), len(workloads))
	}
	for i, name := range names {
		if workloads[i].name != name {
			t.Errorf("workload %d: BENCHMARK.json says %q, mayabench %q", i, name, workloads[i].name)
		}
	}
	units := make(map[string]string, len(perLayer))
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}
	for _, en := range experiments.Suite() {
		if name := "experiments." + en.Name + "_s"; units[name] != "s" {
			t.Errorf("BENCHMARK.json does not declare %s in s", name)
		}
	}
}

// TestWorkloads runs every workload untraced at a tiny size, and one
// traced run, which covers every workload's layers: every declared metric
// must come out with its unit, every output check must hold (the traced
// run includes the bit-for-bit fleet and attack replays), and the traced
// run's digest must equal the untraced run's of its workload.
func TestWorkloads(t *testing.T) {
	_, endToEnd, perLayer := declared(t)
	dir := t.TempDir()
	e := env{sz: tinySizes(), tally: &tally{}, workDir: dir}
	digests := make(map[string]string)
	for _, def := range workloads {
		plain, err := runEndToEnd(def, e, 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, def.name, plain.metrics, endToEnd)
		if plain.digest == "" {
			t.Errorf("%s: empty digest", def.name)
		}
		digests[def.name] = plain.digest
	}

	def := workloads[0]
	traceDir := filepath.Join(dir, "trace")
	traced, err := runTraced(def, e, 7, traceDir)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, "traced", traced.metrics, runnable(perLayer, e.sz.suiteFilter))
	for _, f := range []string{"trace.json", "layers.json"} {
		if _, err := os.Stat(filepath.Join(traceDir, f)); err != nil {
			t.Error(err)
		}
	}
	if traced.digest != digests[def.name] {
		t.Errorf("%s: digest %q untraced, %q traced", def.name, digests[def.name], traced.digest)
	}
	if e.tally.failed > 0 {
		t.Errorf("%d of %d operations failed", e.tally.failed, e.tally.attempted)
	}
}

// runnable drops the per-entry suite metrics of the entries filter leaves
// out: the tiny size runs only the cheap entries.
func runnable(declared []declaredMetric, filter *regexp.Regexp) []declaredMetric {
	var out []declaredMetric
	for _, m := range declared {
		name, ok := strings.CutPrefix(m.Name, "experiments.")
		if entry, isEntry := strings.CutSuffix(name, "_s"); ok && isEntry && filter != nil && !filter.MatchString(entry) {
			continue
		}
		out = append(out, m)
	}
	return out
}

func checkMetrics(t *testing.T, run string, got []metric, want []declaredMetric) {
	t.Helper()
	units := make(map[string]string, len(got))
	for _, m := range got {
		if _, dup := units[m.Name]; dup {
			t.Errorf("%s: metric %s emitted twice", run, m.Name)
		}
		units[m.Name] = m.Unit
	}
	for _, w := range want {
		unit, ok := units[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", run, w.Name)
		case unit != w.Unit:
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", run, w.Name, unit, w.Unit)
		}
		delete(units, w.Name)
	}
	for name := range units {
		t.Errorf("%s: metric %s is not declared in BENCHMARK.json", run, name)
	}
}
