package sim

import (
	"math"

	"github.com/maya-defense/maya/internal/actuator"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/workload"
)

// MachineBank simulates T machines of one configuration in structure-of-
// arrays form: each physical quantity (commanded and effective inputs,
// energy, temperature, burst state) is a tenant-contiguous slab, so StepAll
// streams each model coefficient across the whole fleet instead of
// re-walking a Machine struct per tenant.
//
// Every tenant's trajectory is bit-for-bit the trajectory of a scalar
// Machine built with the same config and that tenant's seed: StepAll runs
// the exact statement order of Machine.Step per tenant (the per-tenant
// noise stream and workload force that part scalar; the batching is in the
// memory layout and the loop-invariant coefficient hoisting, both of which
// leave the float arithmetic untouched). TestMachineBankMatchesMachine pins
// this.
//
// All tenants share one clock: a bank models a homogeneous fleet stepped in
// lockstep, which is what the fleet engine needs. Only SetInputsAll (through
// the fault filters) and the sensors read that clock, so between those
// calls the tenants need not move together: StepRange steps one tenant
// range at a time, and AdvanceClock catches the clock up once every tenant
// has taken the same number of steps. Per-tenant fault hooks (input
// filter, lag scale, energy wrap) remain independent.
type MachineBank struct {
	cfg   Config
	knobs actuator.Set
	len   int
	tick  int64

	// Commanded (quantized) inputs and their lag-filtered effective values.
	cmdF, cmdI, cmdB []float64
	effF, effI, effB []float64

	energyJ []float64
	wallW   []float64
	tempC   []float64

	burstLeft  []int
	burstPower []float64

	// Fault hooks, per tenant (inert by default; see internal/fault).
	filters  []InputFilter
	lagScale []float64
	wrapJ    []float64

	noise []*rng.Stream

	// Scratch for SetInputsAll's gather → batched quantize.
	scrF, scrI, scrB []float64
}

// NewMachineBank builds T machines in their reset state, tenant t seeded
// with seeds[t] — the same stream a scalar NewMachine(cfg, seeds[t]) draws.
func NewMachineBank(cfg Config, seeds []uint64) *MachineBank {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	T := len(seeds)
	if T == 0 {
		panic("sim: NewMachineBank needs at least one tenant")
	}
	b := &MachineBank{
		cfg: cfg, knobs: cfg.Knobs(), len: T,
		cmdF: make([]float64, T), cmdI: make([]float64, T), cmdB: make([]float64, T),
		effF: make([]float64, T), effI: make([]float64, T), effB: make([]float64, T),
		energyJ: make([]float64, T), wallW: make([]float64, T), tempC: make([]float64, T),
		burstLeft: make([]int, T), burstPower: make([]float64, T),
		filters: make([]InputFilter, T), lagScale: make([]float64, T), wrapJ: make([]float64, T),
		noise: make([]*rng.Stream, T),
		scrF:  make([]float64, T), scrI: make([]float64, T), scrB: make([]float64, T),
	}
	for t, seed := range seeds {
		b.noise[t] = rng.NewNamed(seed, "sim/"+cfg.Name)
		b.cmdF[t] = cfg.FmaxGHz
		b.effF[t] = cfg.FmaxGHz
		b.tempC[t] = cfg.AmbientC
	}
	return b
}

// Tenants returns the number of machines in the bank.
func (b *MachineBank) Tenants() int { return b.len }

// Config returns the shared machine configuration.
func (b *MachineBank) Config() Config { return b.cfg }

// Tick returns the shared tick count.
func (b *MachineBank) Tick() int64 { return b.tick }

// Inputs returns tenant t's currently commanded (quantized) settings.
func (b *MachineBank) Inputs(t int) Inputs {
	return Inputs{FreqGHz: b.cmdF[t], Idle: b.cmdI[t], Balloon: b.cmdB[t]}
}

// EnergyJ returns tenant t's RAPL-style quantized cumulative energy
// counter, with the same quantum floor and wrap as Machine.EnergyJ.
func (b *MachineBank) EnergyJ(t int) float64 {
	e := b.energyJ[t]
	if b.cfg.RAPLQuantumJ > 0 {
		e = math.Floor(e/b.cfg.RAPLQuantumJ) * b.cfg.RAPLQuantumJ
	}
	if b.wrapJ[t] > 0 {
		e = math.Mod(e, b.wrapJ[t])
	}
	return e
}

// TrueEnergyJ returns tenant t's unquantized energy.
func (b *MachineBank) TrueEnergyJ(t int) float64 { return b.energyJ[t] }

// SetInputsAll commands new actuator settings for every tenant: per-tenant
// fault filters first (they see the bank clock and the command currently in
// force, exactly like Machine.SetInputs), then one batched quantize per
// knob across the fleet.
func (b *MachineBank) SetInputsAll(ins []Inputs) {
	if len(ins) != b.len {
		panic("sim: SetInputsAll length mismatch")
	}
	for t, in := range ins {
		if f := b.filters[t]; f != nil {
			in = f(b.tick, in, b.Inputs(t))
		}
		b.scrF[t] = in.FreqGHz
		b.scrI[t] = in.Idle
		b.scrB[t] = in.Balloon
	}
	b.knobs.DVFS.QuantizeSlab(b.cmdF, b.scrF)
	b.knobs.Idle.QuantizeSlab(b.cmdI, b.scrI)
	b.knobs.Balloon.QuantizeSlab(b.cmdB, b.scrB)
}

// StepAll advances every tenant by one tick, tenant t running ws[t], and
// writes each tenant's StepResult into out: StepRange over the whole bank,
// then one tick of the shared clock.
//
//maya:hotpath
func (b *MachineBank) StepAll(ws []workload.Workload, out []StepResult) {
	b.StepRange(0, b.len, ws, out)
	b.tick++
}

// StepRange advances tenants [lo, hi) by one tick, tenant t running ws[t]
// and writing out[t]; ws and out span the whole bank. It is Machine.Step
// transcribed over the slabs: per-tenant statement order is identical, so
// every power, energy, and RNG value matches the scalar machine bit for
// bit. It leaves the shared clock alone (see AdvanceClock) and touches
// only the range's columns, so disjoint ranges may step concurrently.
//
//maya:hotpath
func (b *MachineBank) StepRange(lo, hi int, ws []workload.Workload, out []StepResult) {
	checkBankLens(len(ws) == b.len && len(out) == b.len && 0 <= lo && lo <= hi && hi <= b.len)
	dt := b.cfg.TickSeconds

	for t := lo; t < hi; t++ {
		// Actuation lags: first-order approach to the commanded values. The
		// lag scale is a fault hook (extra actuation latency); nominal is 1.
		ls := b.lagScale[t]
		if ls <= 0 {
			ls = 1
		}
		b.effF[t] = lag(b.effF[t], b.cmdF[t], dt, ls*b.cfg.TauDVFS)
		b.effI[t] = lag(b.effI[t], b.cmdI[t], dt, ls*b.cfg.TauIdle)
		b.effB[t] = lag(b.effB[t], b.cmdB[t], dt, ls*b.cfg.TauBalloon)

		f := b.effF[t]
		v := b.cfg.Voltage(f)
		idle := b.effI[t]
		balloon := b.effB[t]

		w := ws[t]
		d := w.Demand()
		threads := d.Threads
		if threads > b.cfg.Cores {
			threads = b.cfg.Cores
		}
		if w.Done() {
			threads = 0
		}

		smtDisplacement := 0.55
		if b.cfg.BalloonOnSiblings {
			smtDisplacement = 0.28
		}
		appShare := (1 - idle) * (1 - smtDisplacement*balloon)
		balloonShare := (1 - idle) * balloon

		workDone := 0.0
		finished := false
		if threads > 0 {
			cpuFrac := 1 - d.MemFrac
			rate := 1 / (cpuFrac*b.cfg.FmaxGHz/f + d.MemFrac)
			perThread := b.cfg.GopsPerCoreGHz * b.cfg.FmaxGHz * rate * appShare * dt
			workDone = perThread * float64(threads)
			finished = w.Advance(workDone)
		}

		const balloonActivity = 1.1
		dynPerUnit := b.cfg.CdynPerCore * v * v * f
		appDyn := dynPerUnit * d.Activity * appShare * float64(threads)
		balloonDyn := dynPerUnit * balloonActivity * balloonShare * float64(b.cfg.Cores)
		baseDyn := dynPerUnit * 0.03 * (1 - idle) * float64(b.cfg.Cores)
		static := b.cfg.StaticCoeff * v / b.cfg.VMax

		noise := b.noise[t]
		if b.burstLeft[t] > 0 {
			b.burstLeft[t]--
		} else if noise.Bool(0.002) {
			b.burstLeft[t] = noise.IntRange(10, 80)
			b.burstPower[t] = noise.Uniform(0.2, 1.0) * dynPerUnit * (1 - idle)
		}
		burst := 0.0
		if b.burstLeft[t] > 0 {
			burst = b.burstPower[t]
		}

		power := static + appDyn + balloonDyn + baseDyn + burst
		power *= 1 + 0.02*noise.NormFloat64()
		if power < 0 {
			power = 0
		}

		b.energyJ[t] += power * dt
		b.wallW[t] = (power + b.cfg.RestOfSystemW) / b.cfg.PSUEfficiency
		target := b.cfg.AmbientC + b.cfg.ThermalRes*power
		b.tempC[t] = lag(b.tempC[t], target, dt, b.cfg.ThermalTau)

		out[t] = StepResult{PowerW: power, WallW: b.wallW[t], WorkDone: workDone, Finished: finished, TempC: b.tempC[t]}
	}
}

// AdvanceClock moves the shared clock forward n ticks, once StepRange has
// stepped every tenant n times: the clock StepAll would show after n calls.
func (b *MachineBank) AdvanceClock(n int) { b.tick += int64(n) }

// Sensor returns tenant t's RAPL-style defense sensor, reading the same
// quantized counter and computing the same watt estimate as a NewRAPLSensor
// over a scalar machine. Construct it at the same point in the run as the
// scalar sensor so the baseline energy/tick snapshots agree.
func (b *MachineBank) Sensor(t int) *BankRAPLSensor {
	return &BankRAPLSensor{b: b, t: t, lastE: b.EnergyJ(t), lastT: b.tick}
}

// BankRAPLSensor is RAPLSensor over one tenant column of a MachineBank.
type BankRAPLSensor struct {
	b     *MachineBank
	t     int
	lastE float64
	lastT int64
}

// Observe implements DefenseSensor; like RAPLSensor, the energy counter
// integrates inside the machine model, so there is nothing to do per tick.
func (s *BankRAPLSensor) Observe(StepResult) {}

// ReadW returns average power since the previous read, exactly as
// RAPLSensor.ReadW computes it.
func (s *BankRAPLSensor) ReadW() float64 {
	e := s.b.EnergyJ(s.t)
	t := s.b.tick
	dt := float64(t-s.lastT) * s.b.cfg.TickSeconds
	if dt <= 0 {
		return 0
	}
	p := (e - s.lastE) / dt
	s.lastE, s.lastT = e, t
	if p < 0 {
		p = 0
	}
	return p
}

// Tenant returns tenant t's fault-hook surface. It satisfies the same
// hook contract as *Machine, so fault.Injector plans attach to a bank
// column exactly as they attach to a scalar machine.
func (b *MachineBank) Tenant(t int) *BankMachine { return &BankMachine{b: b, t: t} }

// BankMachine adapts one tenant column of a MachineBank to the scalar
// Machine's fault-hook methods.
type BankMachine struct {
	b *MachineBank
	t int
}

// SetInputFilter installs f as tenant t's SetInputs interceptor (nil
// removes it).
func (m *BankMachine) SetInputFilter(f InputFilter) { m.b.filters[m.t] = f }

// SetLagScale multiplies tenant t's actuation time constants by scale.
func (m *BankMachine) SetLagScale(scale float64) { m.b.lagScale[m.t] = scale }

// SetEnergyWrap makes tenant t's energy counter wrap modulo wrapJ joules.
func (m *BankMachine) SetEnergyWrap(wrapJ float64) { m.b.wrapJ[m.t] = wrapJ }

// checkBankLens panics when StepRange's per-tenant slices do not match the
// bank width or its range falls outside the bank. It lives outside
// StepRange so the panic's string boxing stays off the //maya:hotpath
// allocation budget.
func checkBankLens(ok bool) {
	if !ok {
		panic("sim: StepRange length or range mismatch")
	}
}
