// Package sim provides the simulated computer on which Maya is evaluated.
// The paper deploys on three physical x86 machines (Table III) with RAPL
// sensors and, for Sys3, an AC-outlet power tap; none of that hardware is
// available here, so this package substitutes a behavioural model that
// preserves the properties the defense and the attacks interact with:
//
//   - activity-dependent power: P = static(V) + Σcores Cdyn·V²·f·activity,
//     where activity comes from the running workload, injected idleness,
//     and the balloon task;
//   - DVFS ladder with a voltage/frequency table, so power scales ~V²f;
//   - actuation lag: DVFS, powerclamp, and the balloon each converge to
//     their setpoints with distinct first-order time constants — the plant
//     dynamics that make naive reactive control miss (Fig 3) and that the
//     ARX model of §V-A identifies;
//   - frequency-dependent progress: memory-bound work speeds up sublinearly
//     with frequency, so DVFS has phase-dependent power/performance impact
//     (why Random Inputs fails, §VII-A);
//   - sensing: a RAPL-style quantized energy counter updated every tick,
//     and an outlet sensor with PSU losses and RMS averaging over AC cycles;
//   - a first-order thermal model (temperature is power-derived, §II-A).
//
// Time advances in fixed 1 ms ticks; the defense runs every 20 ticks as in
// the paper (20 ms RAPL update rate).
package sim

import (
	"fmt"
	"math"

	"github.com/maya-defense/maya/internal/actuator"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/workload"
)

// Config describes a simulated machine.
type Config struct {
	Name  string
	Cores int // physical cores available for app/balloon threads

	FminGHz, FmaxGHz float64 // DVFS ladder bounds (0.1 GHz steps)

	TDP float64 // thermal design power, W (mask targets stay below this)

	// Power-model coefficients.
	CdynPerCore float64 // W per (GHz · V²) per core at activity 1
	StaticCoeff float64 // static power at V = VMax, scales linearly with V
	VMin, VMax  float64 // core voltage at Fmin / Fmax

	// Work-model coefficients.
	GopsPerCoreGHz float64 // giga-ops per second per core per GHz, compute-bound

	// Actuation time constants (seconds).
	TauDVFS, TauIdle, TauBalloon float64

	// Sensor properties.
	SensorNoiseFrac float64 // relative Gaussian noise on per-tick power
	RAPLQuantumJ    float64 // energy counter LSB (Intel: 15.3 µJ)

	// Outlet model (whole-system view for Sys3-style attacks).
	PSUEfficiency float64 // wall power = system power / efficiency
	RestOfSystemW float64 // board, DRAM, disk, fans

	// Thermal model.
	AmbientC   float64
	ThermalRes float64 // °C per W
	ThermalTau float64 // seconds

	// BalloonOnSiblings models the paper's §V optimization "run the
	// application and power balloon threads on separate SMT contexts to
	// avoid context switch overhead": the balloon is pinned to sibling
	// hardware threads, so it displaces the application only through
	// shared-core resource contention rather than scheduling.
	BalloonOnSiblings bool

	TickSeconds float64 // simulation step (default 1 ms)
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("sim: %s has no cores", c.Name)
	case c.FmaxGHz <= c.FminGHz:
		return fmt.Errorf("sim: %s frequency range empty", c.Name)
	case c.TDP <= 0, c.CdynPerCore <= 0, c.GopsPerCoreGHz <= 0:
		return fmt.Errorf("sim: %s power/work coefficients must be positive", c.Name)
	case c.TickSeconds <= 0:
		return fmt.Errorf("sim: %s non-positive tick", c.Name)
	case c.PSUEfficiency <= 0 || c.PSUEfficiency > 1:
		return fmt.Errorf("sim: %s PSU efficiency out of (0,1]", c.Name)
	}
	return nil
}

// Knobs returns the actuator set for this machine.
func (c Config) Knobs() actuator.Set {
	return actuator.Set{
		DVFS:    actuator.DVFSKnob(c.FminGHz, c.FmaxGHz),
		Idle:    actuator.StandardIdle(),
		Balloon: actuator.StandardBalloon(),
	}
}

// Voltage returns the rail voltage at frequency f (linear V/f table).
func (c Config) Voltage(f float64) float64 {
	t := (f - c.FminGHz) / (c.FmaxGHz - c.FminGHz)
	return c.VMin + t*(c.VMax-c.VMin)
}

// Sys1 models the paper's consumer Sandy Bridge desktop: 6 physical cores
// (12 logical), DVFS 1.2–2.0 GHz, RAPL cores+L1+L2 domain. Coefficients are
// calibrated so typical application power falls in the ~8–25 W band seen in
// the paper's Sys1 plots, with TDP 30 W bounding mask targets.
func Sys1() Config {
	return Config{
		Name: "sys1", Cores: 6,
		FminGHz: 1.2, FmaxGHz: 2.0,
		TDP:         30,
		CdynPerCore: 1.55, StaticCoeff: 3.5, VMin: 0.85, VMax: 1.05,
		GopsPerCoreGHz:  0.5,
		TauDVFS:         0.002,
		TauIdle:         0.006,
		TauBalloon:      0.010,
		SensorNoiseFrac: 0.01,
		RAPLQuantumJ:    15.3e-6,
		PSUEfficiency:   0.87, RestOfSystemW: 28,
		AmbientC: 24, ThermalRes: 0.9, ThermalTau: 8,
		TickSeconds: 1e-3,
	}
}

// Sys2 models the two-socket Sandy Bridge server: 20 physical cores
// (40 logical), DVFS 1.2–2.6 GHz, package-level RAPL.
func Sys2() Config {
	return Config{
		Name: "sys2", Cores: 20,
		FminGHz: 1.2, FmaxGHz: 2.6,
		TDP:         160,
		CdynPerCore: 1.8, StaticCoeff: 22, VMin: 0.85, VMax: 1.10,
		GopsPerCoreGHz:  0.5,
		TauDVFS:         0.002,
		TauIdle:         0.006,
		TauBalloon:      0.010,
		SensorNoiseFrac: 0.01,
		RAPLQuantumJ:    15.3e-6,
		PSUEfficiency:   0.90, RestOfSystemW: 65,
		AmbientC: 24, ThermalRes: 0.25, ThermalTau: 12,
		TickSeconds: 1e-3,
	}
}

// Sys3 models the consumer Haswell machine: 4 physical cores (8 logical),
// DVFS 0.8–3.5 GHz. Its power is observed through the AC outlet in the
// webpage attack.
func Sys3() Config {
	return Config{
		Name: "sys3", Cores: 4,
		FminGHz: 0.8, FmaxGHz: 3.5,
		TDP:         45,
		CdynPerCore: 1.5, StaticCoeff: 3.0, VMin: 0.75, VMax: 1.15,
		GopsPerCoreGHz:  0.6,
		TauDVFS:         0.002,
		TauIdle:         0.006,
		TauBalloon:      0.010,
		SensorNoiseFrac: 0.012,
		RAPLQuantumJ:    15.3e-6,
		PSUEfficiency:   0.85, RestOfSystemW: 22,
		AmbientC: 24, ThermalRes: 0.8, ThermalTau: 7,
		TickSeconds: 1e-3,
	}
}

// PresetNames lists the built-in machine identifiers PresetByName accepts.
var PresetNames = []string{"sys1", "sys2", "sys3"}

// PresetByName resolves a built-in machine preset by its short name, the
// form shared by mayactl's -machine flag and mayad's admission API.
func PresetByName(name string) (Config, bool) {
	switch name {
	case "sys1":
		return Sys1(), true
	case "sys2":
		return Sys2(), true
	case "sys3":
		return Sys3(), true
	}
	return Config{}, false
}

// Inputs are the raw (physical-unit) settings of the three actuators.
type Inputs struct {
	FreqGHz float64 // DVFS setting
	Idle    float64 // forced-idle fraction, 0–0.48
	Balloon float64 // balloon duty, 0–1
}

// Machine simulates one computer running one workload at a time.
type Machine struct {
	cfg   Config
	knobs actuator.Set

	// Commanded (quantized) inputs and their lag-filtered effective values.
	cmd Inputs
	eff Inputs

	tick    int64
	energyJ float64 // true cumulative core-domain energy
	tempC   float64

	// OS background activity: occasional housekeeping bursts (timers,
	// kworkers, interrupts) modeled as a two-state process. Real machines
	// carry this label-independent power texture; without it, residual
	// defense artifacts are unrealistically clean.
	burstLeft  int
	burstPower float64

	// Fault hooks (all inert by default; see internal/fault). They survive
	// Reset: hooks are wiring, like the config, not run state.
	inputFilter InputFilter
	lagScale    float64 // <= 0 means nominal (1)
	wrapJ       float64 // energy counter wraps modulo this; 0 disables

	noise *rng.Stream
}

// InputFilter intercepts SetInputs commands before quantization. It
// receives the current tick, the newly commanded inputs, and the command
// currently in force, and returns what is actually committed — the seam
// through which the fault-injection layer models dropped commands and
// stuck knobs.
type InputFilter func(tick int64, commanded, current Inputs) Inputs

// SetInputFilter installs f as an interceptor of SetInputs commands (nil
// removes it). With no filter installed, SetInputs behaves exactly as
// before — the hook costs one nil check.
func (m *Machine) SetInputFilter(f InputFilter) { m.inputFilter = f }

// SetLagScale multiplies every actuation time constant by scale (> 1 means
// knobs apply late). Values <= 0 or 1 restore nominal dynamics.
func (m *Machine) SetLagScale(scale float64) { m.lagScale = scale }

// SetEnergyWrap makes the RAPL-style energy counter returned by EnergyJ
// wrap modulo wrapJ joules (0 disables). Real counters are finite-width;
// an un-hardened reader observes a wrap as a negative energy delta.
func (m *Machine) SetEnergyWrap(wrapJ float64) { m.wrapJ = wrapJ }

// NewMachine builds a machine in its reset state. seed feeds the sensor and
// model noise streams; two machines with the same seed behave identically.
func NewMachine(cfg Config, seed uint64) *Machine {
	m := new(Machine)
	m.init(cfg, seed)
	return m
}

// init validates cfg and puts m in its reset state, with no fault hooks.
func (m *Machine) init(cfg Config, seed uint64) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	*m = Machine{cfg: cfg, knobs: cfg.Knobs()}
	m.Reset(seed)
}

// Reset returns the machine to time zero with fresh noise.
func (m *Machine) Reset(seed uint64) {
	m.noise = rng.NewNamed(seed, "sim/"+m.cfg.Name)
	m.cmd = Inputs{FreqGHz: m.cfg.FmaxGHz}
	m.eff = m.cmd
	m.tick = 0
	m.energyJ = 0
	m.tempC = m.cfg.AmbientC
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// SetInputs commands new actuator settings; values are quantized to the
// legal ladders. The settings take effect gradually (first-order lag).
func (m *Machine) SetInputs(in Inputs) {
	if m.inputFilter != nil {
		in = m.inputFilter(m.tick, in, m.cmd)
	}
	m.cmd = Inputs{
		FreqGHz: m.knobs.DVFS.Quantize(in.FreqGHz),
		Idle:    m.knobs.Idle.Quantize(in.Idle),
		Balloon: m.knobs.Balloon.Quantize(in.Balloon),
	}
}

// Inputs returns the currently commanded (quantized) settings.
func (m *Machine) Inputs() Inputs { return m.cmd }

// EffectiveInputs returns the lag-filtered values actually in force.
func (m *Machine) EffectiveInputs() Inputs { return m.eff }

// Now returns the current simulated time in seconds.
func (m *Machine) Now() float64 { return float64(m.tick) * m.cfg.TickSeconds }

// Tick returns the number of elapsed ticks.
func (m *Machine) Tick() int64 { return m.tick }

// EnergyJ returns the RAPL-style quantized cumulative energy counter for
// the core domain.
func (m *Machine) EnergyJ() float64 {
	e := m.energyJ
	if m.cfg.RAPLQuantumJ > 0 {
		e = math.Floor(e/m.cfg.RAPLQuantumJ) * m.cfg.RAPLQuantumJ
	}
	if m.wrapJ > 0 {
		e = math.Mod(e, m.wrapJ)
	}
	return e
}

// TrueEnergyJ returns the unquantized energy (for tests and accounting).
func (m *Machine) TrueEnergyJ() float64 { return m.energyJ }

// TemperatureC returns the current package temperature.
func (m *Machine) TemperatureC() float64 { return m.tempC }

// StepResult reports what happened during one tick.
type StepResult struct {
	PowerW   float64 // core-domain power this tick (true, pre-sensor)
	WallW    float64 // whole-system wall power this tick
	WorkDone float64 // giga-ops completed by the workload
	Finished bool    // workload completed during this tick
	TempC    float64
}

// Step advances the machine by one tick while running w. Passing a
// completed workload (or workload.Idle{}) simulates an idle machine.
//
//maya:hotpath
func (m *Machine) Step(w workload.Workload) StepResult {
	dt := m.cfg.TickSeconds

	// Actuation lags: first-order approach to the commanded values. The
	// lag scale is a fault hook (extra actuation latency); nominal is 1.
	ls := m.lagScale
	if ls <= 0 {
		ls = 1
	}
	m.eff.FreqGHz = lag(m.eff.FreqGHz, m.cmd.FreqGHz, dt, ls*m.cfg.TauDVFS)
	m.eff.Idle = lag(m.eff.Idle, m.cmd.Idle, dt, ls*m.cfg.TauIdle)
	m.eff.Balloon = lag(m.eff.Balloon, m.cmd.Balloon, dt, ls*m.cfg.TauBalloon)

	f := m.eff.FreqGHz
	v := m.cfg.Voltage(f)
	idle := m.eff.Idle
	balloon := m.eff.Balloon

	d := w.Demand()
	threads := d.Threads
	if threads > m.cfg.Cores {
		threads = m.cfg.Cores
	}
	if w.Done() {
		threads = 0
	}

	// Per-core time shares. The balloon spawns a thread on every core and
	// runs with root priority at a `balloon` duty cycle; powerclamp's
	// injected idleness displaces everything. The paper's machines are all
	// 2-way SMT: the balloon thread occupies one hardware context, so even
	// at full duty the application's sibling context keeps executing at
	// reduced throughput — displacement is partial, not total.
	smtDisplacement := 0.55
	if m.cfg.BalloonOnSiblings {
		// Pinned to sibling contexts: only execution-resource contention
		// remains (issue ports, caches), roughly half the displacement.
		smtDisplacement = 0.28
	}
	appShare := (1 - idle) * (1 - smtDisplacement*balloon)
	balloonShare := (1 - idle) * balloon

	// Progress: memory-bound work scales sublinearly with frequency.
	// rate(f) = 1 / (cpuFrac·Fmax/f + memFrac) is throughput relative to a
	// run at Fmax; compute-bound work (memFrac 0) is linear in f, fully
	// memory-bound work is insensitive to f.
	workDone := 0.0
	finished := false
	if threads > 0 {
		cpuFrac := 1 - d.MemFrac
		rate := 1 / (cpuFrac*m.cfg.FmaxGHz/f + d.MemFrac)
		perThread := m.cfg.GopsPerCoreGHz * m.cfg.FmaxGHz * rate * appShare * dt
		workDone = perThread * float64(threads)
		finished = w.Advance(workDone)
	}

	// Power: static + per-core dynamic from app activity and balloon
	// activity. The balloon runs FP-heavy code (activity ≈ 1.1).
	const balloonActivity = 1.1
	dynPerUnit := m.cfg.CdynPerCore * v * v * f
	appDyn := dynPerUnit * d.Activity * appShare * float64(threads)
	balloonDyn := dynPerUnit * balloonActivity * balloonShare * float64(m.cfg.Cores)
	// OS housekeeping background activity on otherwise idle machines.
	baseDyn := dynPerUnit * 0.03 * (1 - idle) * float64(m.cfg.Cores)
	static := m.cfg.StaticCoeff * v / m.cfg.VMax

	// OS housekeeping bursts: start with ~2 Hz mean rate, last 10–80 ms,
	// draw a fraction of one core's dynamic power.
	if m.burstLeft > 0 {
		m.burstLeft--
	} else if m.noise.Bool(0.002) {
		m.burstLeft = m.noise.IntRange(10, 80)
		m.burstPower = m.noise.Uniform(0.2, 1.0) * dynPerUnit * (1 - idle)
	}
	burst := 0.0
	if m.burstLeft > 0 {
		burst = m.burstPower
	}

	power := static + appDyn + balloonDyn + baseDyn + burst
	// Model noise: supply ripple, uncore activity not captured above.
	power *= 1 + 0.02*m.noise.NormFloat64()
	if power < 0 {
		power = 0
	}

	m.energyJ += power * dt
	wallW := (power + m.cfg.RestOfSystemW) / m.cfg.PSUEfficiency
	// First-order thermal response toward ambient + R·P.
	target := m.cfg.AmbientC + m.cfg.ThermalRes*power
	m.tempC = lag(m.tempC, target, dt, m.cfg.ThermalTau)

	m.tick++
	return StepResult{PowerW: power, WallW: wallW, WorkDone: workDone, Finished: finished, TempC: m.tempC}
}

// lag advances a first-order filter toward target with time constant tau.
func lag(cur, target, dt, tau float64) float64 {
	if tau <= 0 {
		return target
	}
	a := dt / tau
	if a > 1 {
		a = 1
	}
	return cur + a*(target-cur)
}
