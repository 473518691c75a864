package sim

import (
	"math"
	"testing"

	"github.com/maya-defense/maya/internal/signal"
	"github.com/maya-defense/maya/internal/workload"
)

func TestRAPLSensorMatchesTruePower(t *testing.T) {
	m := NewMachine(Sys1(), 1)
	s := NewRAPLSensor(m)
	w := workload.NewApp("raytrace")
	w.Reset(1)
	var truth []float64
	for i := 0; i < 20; i++ {
		truth = append(truth, m.Step(w).PowerW)
	}
	got := s.ReadW()
	want := signal.Mean(truth)
	if math.Abs(got-want) > 0.05*want+0.01 {
		t.Fatalf("RAPL read %g, true mean %g", got, want)
	}
}

func TestRAPLSensorResetsBetweenReads(t *testing.T) {
	m := NewMachine(Sys1(), 2)
	s := NewRAPLSensor(m)
	var idle workload.Idle
	for i := 0; i < 20; i++ {
		m.Step(idle)
	}
	first := s.ReadW()
	// No time has passed; a second immediate read must return 0, not a
	// stale or negative value.
	if second := s.ReadW(); second != 0 {
		t.Fatalf("immediate re-read got %g", second)
	}
	for i := 0; i < 20; i++ {
		m.Step(idle)
	}
	third := s.ReadW()
	if third <= 0 {
		t.Fatalf("read after new interval %g", third)
	}
	_ = first
}

func TestOutletSensorIncludesSystemOverhead(t *testing.T) {
	cfg := Sys3()
	m := NewMachine(cfg, 3)
	rapl := NewRAPLSensor(m)
	outlet := NewOutletSensor(cfg, 3)
	w := workload.NewPage("youtube")
	w.Reset(1)
	for i := 0; i < 50; i++ {
		outlet.Observe(m.Step(w))
	}
	wall := outlet.ReadW()
	core := rapl.ReadW()
	// Wall power must exceed core power by at least the rest-of-system
	// load, inflated by PSU inefficiency.
	if wall < core+cfg.RestOfSystemW {
		t.Fatalf("wall %g should exceed core %g + rest %g", wall, core, cfg.RestOfSystemW)
	}
}

func TestOutletSensorEmptyWindow(t *testing.T) {
	outlet := NewOutletSensor(Sys3(), 4)
	if got := outlet.ReadW(); got != 0 {
		t.Fatalf("empty window read %g", got)
	}
}

func TestOutletTracksLoadChanges(t *testing.T) {
	cfg := Sys3()
	m := NewMachine(cfg, 5)
	outlet := NewOutletSensor(cfg, 5)
	var idle workload.Idle
	for i := 0; i < 50; i++ {
		outlet.Observe(m.Step(idle))
	}
	idleWall := outlet.ReadW()
	w := workload.NewApp("water_nsquared")
	w.Reset(1)
	w.Advance(8.5)
	for i := 0; i < 50; i++ {
		outlet.Observe(m.Step(w))
	}
	loadWall := outlet.ReadW()
	if loadWall <= idleWall+1 {
		t.Fatalf("outlet cannot see load: idle %g load %g", idleWall, loadWall)
	}
}

func TestTemperatureSensor(t *testing.T) {
	m := NewMachine(Sys1(), 6)
	if got := m.TemperatureC(); got != m.Config().AmbientC {
		t.Fatalf("fresh machine temp %g", got)
	}
}

func TestRunnerBaseline(t *testing.T) {
	cfg := Sys1()
	m := NewMachine(cfg, 7)
	w := workload.NewApp("blackscholes").Scale(0.05)
	w.Reset(1)
	res := Run(m, w, NewBaselinePolicy(cfg), RunSpec{
		ControlPeriodTicks: 20, MaxTicks: 60000, StopOnFinish: true,
	})
	if res.FinishedTick < 0 {
		t.Fatal("workload did not finish")
	}
	if len(res.DefenseSamples) == 0 || len(res.TickPowerW) == 0 {
		t.Fatal("no samples recorded")
	}
	if res.EnergyJ <= 0 || res.Seconds <= 0 {
		t.Fatalf("accounting broken: E=%g t=%g", res.EnergyJ, res.Seconds)
	}
}

func TestRunnerSamplers(t *testing.T) {
	cfg := Sys1()
	m := NewMachine(cfg, 8)
	w := workload.NewApp("vips").Scale(0.05)
	w.Reset(2)
	att := &Sampler{Sensor: NewRAPLSensor(m), PeriodTicks: 10}
	res := Run(m, w, NewBaselinePolicy(cfg), RunSpec{
		ControlPeriodTicks: 20, MaxTicks: 4000, Samplers: []*Sampler{att},
	})
	// 4000 ticks at period 10 → 400 attacker samples; defense saw 200.
	if len(att.Samples) != 400 {
		t.Fatalf("attacker samples %d want 400", len(att.Samples))
	}
	if len(res.DefenseSamples) != 200 {
		t.Fatalf("defense samples %d want 200", len(res.DefenseSamples))
	}
}

func TestRunnerContinuesPastFinish(t *testing.T) {
	cfg := Sys1()
	m := NewMachine(cfg, 9)
	w := workload.NewPage("google").Scale(0.2)
	w.Reset(1)
	res := Run(m, w, NewBaselinePolicy(cfg), RunSpec{
		ControlPeriodTicks: 20, MaxTicks: 30000, StopOnFinish: false,
	})
	if res.FinishedTick < 0 {
		t.Fatal("tiny page never finished")
	}
	if int64(len(res.TickPowerW)) <= res.FinishedTick {
		t.Fatal("run stopped at finish despite StopOnFinish=false")
	}
}

func TestRunnerPolicyReceivesPower(t *testing.T) {
	cfg := Sys1()
	m := NewMachine(cfg, 10)
	w := workload.NewApp("raytrace").Scale(0.1)
	w.Reset(1)
	var got []float64
	p := PolicyFunc(func(step int, powerW float64) Inputs {
		if step > 0 {
			got = append(got, powerW)
		}
		return Inputs{FreqGHz: cfg.FmaxGHz}
	})
	Run(m, w, p, RunSpec{ControlPeriodTicks: 20, MaxTicks: 2000})
	if len(got) == 0 {
		t.Fatal("policy never saw power")
	}
	for _, pw := range got {
		if pw <= 0 || pw > cfg.TDP*2 {
			t.Fatalf("implausible power reading %g", pw)
		}
	}
}

func TestEMSensorTracksActivityChanges(t *testing.T) {
	cfg := Sys1()
	m := NewMachine(cfg, 21)
	em := NewEMSensor(cfg, 21)
	// Idle machine: small derivative, low probe output.
	var idle workload.Idle
	for i := 0; i < 500; i++ {
		em.Observe(m.Step(idle))
	}
	quiet := em.ReadW()
	// Oscillating workload: large activity swings, high probe output.
	w := workload.NewProgram("osc", []workload.Phase{{
		Name: "x", Work: 1e6, Threads: 6, Activity: 0.7,
		Osc: &workload.Oscillation{Amp: 0.5, PeriodWork: 0.5},
	}})
	w.Reset(1)
	for i := 0; i < 500; i++ {
		em.Observe(m.Step(w))
	}
	busy := em.ReadW()
	if busy < 1.5*quiet {
		t.Fatalf("EM probe blind to activity: quiet %.2f busy %.2f", quiet, busy)
	}
}

func TestEMSensorEmptyWindow(t *testing.T) {
	em := NewEMSensor(Sys1(), 3)
	if got := em.ReadW(); got != 0 {
		t.Fatalf("empty window read %g", got)
	}
}

func TestRecordDemandsCapturesPhases(t *testing.T) {
	cfg := Sys1()
	w := workload.NewApp("blackscholes").Scale(0.1)
	w.Reset(1)
	demands := RecordDemands(cfg, w, 8000, 3)
	if len(demands) != 8000 {
		t.Fatalf("len=%d", len(demands))
	}
	// The sequential (1-thread) and parallel (6-thread) phases must both
	// appear — i.e. recording executed the program rather than sampling a
	// frozen phase.
	seen := map[int]bool{}
	for _, d := range demands {
		seen[d.Threads] = true
	}
	if !seen[1] || !seen[6] {
		t.Fatalf("phases missing from recording: %v", seen)
	}
}
