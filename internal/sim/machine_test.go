package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/maya-defense/maya/internal/signal"
	"github.com/maya-defense/maya/internal/workload"
)

func TestConfigsValid(t *testing.T) {
	for _, cfg := range []Config{Sys1(), Sys2(), Sys3()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
}

func TestSys3DVFSRangeMatchesPaper(t *testing.T) {
	// Table III / §V: Sys1 1.2–2.0, Sys2 1.2–2.6, Sys3 0.8–3.5 GHz.
	cases := []struct {
		cfg      Config
		min, max float64
	}{
		{Sys1(), 1.2, 2.0}, {Sys2(), 1.2, 2.6}, {Sys3(), 0.8, 3.5},
	}
	for _, c := range cases {
		if c.cfg.FminGHz != c.min || c.cfg.FmaxGHz != c.max {
			t.Fatalf("%s DVFS range %g-%g", c.cfg.Name, c.cfg.FminGHz, c.cfg.FmaxGHz)
		}
	}
}

func TestIdlePowerLow(t *testing.T) {
	m := NewMachine(Sys1(), 1)
	var idle workload.Idle
	total := 0.0
	const n = 1000
	for i := 0; i < n; i++ {
		total += m.Step(idle).PowerW
	}
	avg := total / n
	if avg < 1 || avg > 10 {
		t.Fatalf("idle power %g W out of expected band", avg)
	}
}

func TestLoadIncreasesPower(t *testing.T) {
	m := NewMachine(Sys1(), 1)
	var idle workload.Idle
	idleAvg := 0.0
	for i := 0; i < 500; i++ {
		idleAvg += m.Step(idle).PowerW
	}
	idleAvg /= 500

	m.Reset(1)
	w := workload.NewApp("water_nsquared")
	w.Reset(1)
	w.Advance(10) // move past the sequential setup into the parallel phase
	loadAvg := 0.0
	for i := 0; i < 500; i++ {
		loadAvg += m.Step(w).PowerW
	}
	loadAvg /= 500
	if loadAvg < 2*idleAvg {
		t.Fatalf("full load %g W not well above idle %g W", loadAvg, idleAvg)
	}
	if loadAvg > m.Config().TDP {
		t.Fatalf("load power %g exceeds TDP %g", loadAvg, m.Config().TDP)
	}
}

func TestDVFSReducesPowerAndProgress(t *testing.T) {
	run := func(freq float64) (avgPower, work float64) {
		m := NewMachine(Sys1(), 2)
		m.SetInputs(Inputs{FreqGHz: freq})
		w := workload.NewApp("raytrace")
		w.Reset(1)
		w.Advance(9.5) // into the compute-heavy render phase
		var p float64
		for i := 0; i < 1000; i++ {
			r := m.Step(w)
			p += r.PowerW
			work += r.WorkDone
		}
		return p / 1000, work
	}
	pHigh, wHigh := run(2.0)
	pLow, wLow := run(1.2)
	if pLow >= pHigh {
		t.Fatalf("low DVFS power %g >= high %g", pLow, pHigh)
	}
	if wLow >= wHigh {
		t.Fatalf("low DVFS work %g >= high %g", wLow, wHigh)
	}
	// Compute-bound: progress roughly linear in f; power superlinear (V²f).
	if ratio := wLow / wHigh; math.Abs(ratio-1.2/2.0) > 0.1 {
		t.Fatalf("compute-bound progress ratio %g, want ≈0.6", ratio)
	}
	if pLow/pHigh > 0.75 {
		t.Fatalf("power ratio %g not superlinear in f", pLow/pHigh)
	}
}

func TestMemoryBoundLessFrequencySensitive(t *testing.T) {
	speed := func(name string, freq float64) float64 {
		m := NewMachine(Sys1(), 3)
		m.SetInputs(Inputs{FreqGHz: freq})
		w := workload.NewApp(name)
		w.Reset(1)
		w.Advance(15) // into main phase for both apps
		var work float64
		for i := 0; i < 500; i++ {
			work += m.Step(w).WorkDone
		}
		return work
	}
	computeRatio := speed("water_nsquared", 1.2) / speed("water_nsquared", 2.0)
	memRatio := speed("canneal", 1.2) / speed("canneal", 2.0)
	if memRatio <= computeRatio {
		t.Fatalf("memory-bound app should lose less from low DVFS: mem %g vs compute %g", memRatio, computeRatio)
	}
}

func TestIdleInjectionReducesPowerAndProgress(t *testing.T) {
	run := func(idle float64) (p, w float64) {
		m := NewMachine(Sys1(), 4)
		m.SetInputs(Inputs{FreqGHz: 2.0, Idle: idle})
		wl := workload.NewApp("raytrace")
		wl.Reset(1)
		wl.Advance(9.5)
		for i := 0; i < 500; i++ {
			r := m.Step(wl)
			p += r.PowerW
			w += r.WorkDone
		}
		return p / 500, w
	}
	p0, w0 := run(0)
	p48, w48 := run(0.48)
	if p48 >= p0 || w48 >= w0 {
		t.Fatalf("idle injection ineffective: power %g→%g work %g→%g", p0, p48, w0, w48)
	}
	if math.Abs(w48/w0-0.52) > 0.08 {
		t.Fatalf("48%% idle should cut progress ~48%%: ratio %g", w48/w0)
	}
}

func TestBalloonRaisesPowerLowersProgress(t *testing.T) {
	run := func(b float64) (p, w float64) {
		m := NewMachine(Sys1(), 5)
		m.SetInputs(Inputs{FreqGHz: 2.0, Balloon: b})
		wl := workload.NewPage("google") // light load leaves headroom
		wl.Reset(1)
		for i := 0; i < 500; i++ {
			r := m.Step(wl)
			p += r.PowerW
			w += r.WorkDone
		}
		return p / 500, w
	}
	p0, w0 := run(0)
	p1, w1 := run(1.0)
	if p1 <= p0 {
		t.Fatalf("balloon did not raise power: %g vs %g", p1, p0)
	}
	if w1 >= w0 {
		t.Fatalf("balloon did not slow the app: %g vs %g", w1, w0)
	}
}

func TestActuationLag(t *testing.T) {
	m := NewMachine(Sys1(), 6)
	var idle workload.Idle
	m.Step(idle)
	m.SetInputs(Inputs{FreqGHz: 1.2, Idle: 0.48, Balloon: 1.0})
	m.Step(idle)
	eff := m.EffectiveInputs()
	// After one tick the effective values must be partway to the targets.
	if eff.FreqGHz <= 1.2 || eff.FreqGHz >= 2.0 {
		t.Fatalf("DVFS lag broken: %g", eff.FreqGHz)
	}
	if eff.Balloon <= 0 || eff.Balloon >= 1 {
		t.Fatalf("balloon lag broken: %g", eff.Balloon)
	}
	// After many ticks they converge.
	for i := 0; i < 200; i++ {
		m.Step(idle)
	}
	eff = m.EffectiveInputs()
	if math.Abs(eff.FreqGHz-1.2) > 0.01 || math.Abs(eff.Balloon-1.0) > 0.01 || math.Abs(eff.Idle-0.48) > 0.01 {
		t.Fatalf("lag did not converge: %+v", eff)
	}
}

// TestLagMatchesFormula pins the filters' per-tick coefficients, which
// the machine computes once per config and lag scale, to the filter they
// stand for: after every tick the effective inputs and the temperature
// equal cur + min(dt/(ls·tau), 1)·(target − cur) bit for bit, with ls the
// lag scale in force (the thermal filter takes none), and exactly target
// when tau is 0. The lag scale changes mid-run, to 2.5 and back to
// nominal through 0; the second config has no idle lag and a DVFS time
// constant below one tick, whose coefficient clamps to 1.
func TestLagMatchesFormula(t *testing.T) {
	fast := Sys1()
	fast.Name = "fast"
	fast.TauIdle = 0
	fast.TauDVFS = 0.4 * fast.TickSeconds
	for _, cfg := range []Config{Sys1(), fast} {
		t.Run(cfg.Name, func(t *testing.T) {
			m := NewMachine(cfg, 3)
			w := workload.NewApp("raytrace")
			w.Reset(3)
			dt := cfg.TickSeconds
			filter := func(cur, target, tau float64) float64 {
				if tau <= 0 {
					return target
				}
				return cur + min(dt/tau, 1)*(target-cur)
			}
			same := func(tick int, what string, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("tick %d: %s = %v, want %v", tick, what, got, want)
				}
			}
			ls := 1.0
			for tick := 0; tick < 600; tick++ {
				switch tick {
				case 200:
					m.SetLagScale(2.5)
					ls = 2.5
				case 400:
					m.SetLagScale(0)
					ls = 1
				}
				// Idle 0.24 -> 0.04 is a step on which cur + 1·(target − cur)
				// rounds off target, so a snap taken as a unit coefficient
				// shows.
				if tick%20 == 0 {
					m.SetInputs([]Inputs{
						{FreqGHz: 1.2, Idle: 0.24, Balloon: 0.6},
						{FreqGHz: 2.0, Idle: 0.04, Balloon: 0.1},
						{FreqGHz: 1.6, Idle: 0.48, Balloon: 1},
					}[tick/20%3])
				}
				cur, cmd, temp := m.EffectiveInputs(), m.Inputs(), m.TemperatureC()
				r := m.Step(w)
				eff := m.EffectiveInputs()
				same(tick, "DVFS", eff.FreqGHz, filter(cur.FreqGHz, cmd.FreqGHz, ls*cfg.TauDVFS))
				same(tick, "idle", eff.Idle, filter(cur.Idle, cmd.Idle, ls*cfg.TauIdle))
				same(tick, "balloon", eff.Balloon, filter(cur.Balloon, cmd.Balloon, ls*cfg.TauBalloon))
				same(tick, "temperature", m.TemperatureC(), filter(temp, cfg.AmbientC+cfg.ThermalRes*r.PowerW, cfg.ThermalTau))
				if cfg.TauIdle == 0 {
					same(tick, "snapped idle", eff.Idle, cmd.Idle)
				}
			}
		})
	}
}

func TestInputQuantization(t *testing.T) {
	m := NewMachine(Sys1(), 7)
	m.SetInputs(Inputs{FreqGHz: 1.5701, Idle: 0.13, Balloon: 0.26})
	in := m.Inputs()
	if math.Abs(in.FreqGHz-1.6) > 1e-9 {
		t.Fatalf("freq not snapped to ladder: %g", in.FreqGHz)
	}
	if math.Abs(in.Idle-0.12) > 1e-9 {
		t.Fatalf("idle not snapped to 4%% steps: %g", in.Idle)
	}
	if math.Abs(in.Balloon-0.3) > 1e-9 {
		t.Fatalf("balloon not snapped to 10%% steps: %g", in.Balloon)
	}
}

func TestEnergyCounterMonotonicQuantized(t *testing.T) {
	m := NewMachine(Sys1(), 8)
	var idle workload.Idle
	last := m.EnergyJ()
	for i := 0; i < 200; i++ {
		m.Step(idle)
		e := m.EnergyJ()
		if e < last {
			t.Fatal("energy counter went backwards")
		}
		q := m.Config().RAPLQuantumJ
		if r := math.Mod(e, q); r > 1e-12 && q-r > 1e-12 {
			t.Fatalf("energy %g not quantized to %g", e, q)
		}
		last = e
	}
}

func TestDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		run := func() []float64 {
			m := NewMachine(Sys1(), seed)
			w := workload.NewApp("vips")
			w.Reset(seed)
			var out []float64
			for i := 0; i < 100; i++ {
				out = append(out, m.Step(w).PowerW)
			}
			return out
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestThermalFollowsPower(t *testing.T) {
	m := NewMachine(Sys1(), 9)
	w := workload.NewApp("water_nsquared")
	w.Reset(1)
	w.Advance(9)
	var hotT float64
	for i := 0; i < 5000; i++ {
		hotT = m.Step(w).TempC
	}
	if hotT < m.Config().AmbientC+5 {
		t.Fatalf("temperature did not rise under load: %g", hotT)
	}
	// Cool down when idle.
	var idle workload.Idle
	var coolT float64
	for i := 0; i < 20000; i++ {
		coolT = m.Step(idle).TempC
	}
	if coolT >= hotT-2 {
		t.Fatalf("temperature did not fall at idle: %g vs %g", coolT, hotT)
	}
}

func TestAppsProduceDistinctPowerLevels(t *testing.T) {
	// Baseline fingerprint premise (Fig 7a): average power differs across
	// apps.
	avg := func(name string) float64 {
		m := NewMachine(Sys1(), 10)
		w := workload.NewApp(name)
		w.Reset(1)
		w.Advance(15) // past sequential setup, into the dominant phase
		var tr []float64
		for i := 0; i < 4000 && !w.Done(); i++ {
			tr = append(tr, m.Step(w).PowerW)
		}
		return signal.Mean(tr)
	}
	a := avg("water_nsquared") // compute heavy
	b := avg("canneal")        // memory bound
	if a-b < 2 {
		t.Fatalf("app power levels not distinct: %g vs %g", a, b)
	}
}

func TestBalloonOnSiblingsReducesDisplacement(t *testing.T) {
	// §V optimization: pinning the balloon to SMT sibling contexts halves
	// the application slowdown at the same balloon duty.
	run := func(siblings bool) float64 {
		cfg := Sys1()
		cfg.BalloonOnSiblings = siblings
		m := NewMachine(cfg, 30)
		m.SetInputs(Inputs{FreqGHz: 2.0, Balloon: 0.8})
		w := workload.NewApp("raytrace")
		w.Reset(1)
		w.Advance(9.5)
		var work float64
		for i := 0; i < 1000; i++ {
			work += m.Step(w).WorkDone
		}
		return work
	}
	shared := run(false)
	siblings := run(true)
	if siblings <= shared*1.1 {
		t.Fatalf("sibling pinning should recover throughput: %g vs %g", siblings, shared)
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	orig := Sys1()
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConfigJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Fatalf("round trip changed config:\n%+v\nvs\n%+v", got, orig)
	}
}

func TestReadConfigJSONRejectsInvalid(t *testing.T) {
	cases := []string{
		`{`,
		`{"Name":"x","Cores":0,"FminGHz":1,"FmaxGHz":2,"TDP":10,"CdynPerCore":1,"StaticCoeff":1,"VMin":0.8,"VMax":1.0}`,
		`{"Name":"x","Cores":4,"FminGHz":2,"FmaxGHz":1,"TDP":10,"CdynPerCore":1,"StaticCoeff":1,"VMin":0.8,"VMax":1.0}`,
		`{"Name":"x","Cores":4,"FminGHz":1,"FmaxGHz":2,"TDP":10,"CdynPerCore":1,"StaticCoeff":1,"VMin":1.2,"VMax":1.0}`,
		`{"Nonsense":true}`,
	}
	for i, c := range cases {
		if _, err := ReadConfigJSON(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted: %s", i, c)
		}
	}
}

func TestReadConfigJSONDefaults(t *testing.T) {
	// A minimal hand-written config gets working defaults for the rest.
	minimal := `{"Name":"custom","Cores":8,"FminGHz":1.0,"FmaxGHz":3.0,
	 "TDP":65,"CdynPerCore":2.0,"StaticCoeff":5,"VMin":0.8,"VMax":1.1}`
	cfg, err := ReadConfigJSON(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TickSeconds != 1e-3 || cfg.PSUEfficiency != 0.87 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	// The resulting machine must actually run.
	m := NewMachine(cfg, 1)
	var idle workload.Idle
	for i := 0; i < 100; i++ {
		if r := m.Step(idle); r.PowerW <= 0 {
			t.Fatal("custom machine produces no power")
		}
	}
}
