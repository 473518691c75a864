// Package core is the paper's primary contribution assembled: the Maya
// defense engine (Fig 2). Every control period (20 ms) the engine reads the
// power sensor, asks the mask generator for the next target, runs the
// formal controller on the deviation, and actuates the DVFS, idle, and
// balloon knobs. It also provides the §V-A design pipeline that produces
// the controller for a given machine (system identification → ARX fit →
// LQG synthesis).
//
// The engine is deliberately application-transparent: it never inspects the
// workload, only the machine's power, which is what makes Maya deployable
// as privileged software on unmodified systems.
package core

import (
	"fmt"
	"math"

	"github.com/maya-defense/maya/internal/actuator"
	"github.com/maya-defense/maya/internal/control"
	"github.com/maya-defense/maya/internal/mask"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/sysid"
	"github.com/maya-defense/maya/internal/telemetry"
)

// Engine is one deployed Maya instance. It implements sim.Policy, so it
// plugs directly into the simulation runner the way the real implementation
// plugs into a privileged thread.
type Engine struct {
	ctl   *control.Controller
	gen   mask.Generator
	knobs actuator.Set

	// dither, when non-nil, is the mask's high-frequency component,
	// actuated open-loop on the balloon input (see hfDither); balloonGainW
	// converts its watt amplitude into balloon-input units.
	dither       *hfDither
	balloonGainW float64

	// qdither, when non-nil, randomizes the quantization of each input by
	// up to ±half an actuator step per period. Without it, the loop settles
	// into deterministic limit cycles between adjacent quantized levels
	// whose amplitude depends on the plant's local gain — i.e., on the
	// application — leaving a high-frequency fingerprint. Dithered
	// quantization turns that chatter into secret-random noise.
	qdither *rng.Stream

	// Adaptive dither-gain estimator. The balloon's watt-per-duty gain
	// varies several-fold with application state; injecting the HF mask
	// through a fixed gain estimate would make the *injected amplitude*
	// itself an application fingerprint (a time-frequency attacker reads
	// it from band energies). The engine knows its own injected signal, so
	// it estimates the instantaneous gain by NLMS on first-differenced
	// (above-loop-bandwidth) measurements and normalizes the injection.
	ghat           float64
	prevUd, pprevU float64
	prevY          float64
	havePrevY      bool

	// Targets records the mask value issued at each step (the paper's
	// Fig 13a analysis compares this trace against measured power).
	Targets []float64

	// flight, when non-nil, records every Decide into a bounded ring; it
	// captures only simulated-domain values, so a flight trace is
	// deterministic for a fixed seed and never perturbs the decisions.
	flight *telemetry.FlightRecorder
	// metrics, when non-nil, feeds the aggregate counters.
	metrics *EngineMetrics
	// tracer, when non-nil, records each sampled tick's phase breakdown
	// (tick.mask / tick.sensor / tick.control / tick.actuate) as spans
	// parented under traceCtx. Like flight and metrics, tracing observes
	// the host clock only for timestamps and never feeds decisions.
	tracer   *telemetry.Tracer
	traceCtx telemetry.SpanContext

	// guard, when non-nil, filters implausible sensor readings before the
	// controller sees them and re-initializes blown-up state (see Guard).
	guard *Guard
	// Measurement-hold state maintained by the guard.
	lastGoodW float64
	haveGood  bool
	holdUsed  int
}

// EngineMetrics aggregates one engine's control-loop health into a
// registry. All fields are updated on the Decide hot path, so they are
// plain atomic instruments resolved once at construction.
type EngineMetrics struct {
	// Steps counts Decide calls.
	Steps *telemetry.Counter
	// Saturations counts steps on which the controller clipped an input.
	Saturations *telemetry.Counter
	// QuantClips counts knob commands clamped at the actuator's range edge.
	QuantClips *telemetry.Counter
	// AbsErrorW observes |target − measured| each step after the first.
	AbsErrorW *telemetry.Histogram
	// StateNorm tracks the controller state's L2 norm (blow-up detector).
	StateNorm *telemetry.Gauge
	// GlitchRejects counts sensor readings the guard rejected (non-finite
	// or outside the plausible power range).
	GlitchRejects *telemetry.Counter
	// HoldExhausted counts rejects that exceeded the guard's hold budget
	// and were accepted clamped instead of held.
	HoldExhausted *telemetry.Counter
	// StateReinits counts controller state re-initializations after a
	// norm blow-up.
	StateReinits *telemetry.Counter
}

// NewEngineMetrics registers the engine instruments. Multiple engines may
// share one registry; the counters then aggregate across them.
func NewEngineMetrics(reg *telemetry.Registry) *EngineMetrics {
	return &EngineMetrics{
		Steps:         reg.Counter("maya_engine_steps_total", "control-loop Decide calls"),
		Saturations:   reg.Counter("maya_engine_saturated_steps_total", "steps with a saturated controller input"),
		QuantClips:    reg.Counter("maya_engine_quant_clips_total", "knob commands clamped at the actuator range edge"),
		AbsErrorW:     reg.Histogram("maya_engine_abs_error_w", "per-step |mask target − measured power| in watts", telemetry.ExpBuckets(0.125, 2, 12)),
		StateNorm:     reg.Gauge("maya_engine_state_norm", "L2 norm of the controller state"),
		GlitchRejects: reg.Counter("maya_engine_glitch_rejects_total", "sensor readings rejected by the measurement guard"),
		HoldExhausted: reg.Counter("maya_engine_hold_exhausted_total", "rejects accepted clamped after the hold budget ran out"),
		StateReinits:  reg.Counter("maya_engine_state_reinits_total", "controller state re-initializations after a norm blow-up"),
	}
}

// SetFlight attaches a flight recorder (nil detaches). The engine resets
// the recorder on Reset so record indices align with the run's steps.
func (e *Engine) SetFlight(f *telemetry.FlightRecorder) { e.flight = f }

// Flight returns the attached flight recorder, if any.
func (e *Engine) Flight() *telemetry.FlightRecorder { return e.flight }

// SetMetrics attaches aggregate metrics (nil detaches).
func (e *Engine) SetMetrics(m *EngineMetrics) { e.metrics = m }

// SetTrace attaches a tracer (nil detaches) and the parent span to nest
// this engine's per-tick phase spans under — typically the runner job span
// carried by the collection context (telemetry.SpanFromContext). Tick
// phase spans are keyed by the step number, so their identities are
// deterministic; the tracer's tick sampling bounds the volume.
func (e *Engine) SetTrace(tr *telemetry.Tracer, parent telemetry.SpanContext) {
	e.tracer = tr
	e.traceCtx = parent
}

// NewEngine assembles an engine from a synthesized controller (the caller
// keeps ownership; pass a Clone for concurrent runs), a mask generator, and
// the machine's actuator set.
func NewEngine(ctl *control.Controller, gen mask.Generator, knobs actuator.Set) *Engine {
	return &Engine{ctl: ctl, gen: gen, knobs: knobs}
}

// Reset prepares the engine for a new run: fresh controller state, a fresh
// mask stream for the given seed, and cleared telemetry.
func (e *Engine) Reset(seed uint64) {
	e.ctl.Reset()
	e.gen.Reset(seed)
	if e.dither != nil {
		e.dither.Reset(seed + 0x9e3779b97f4a7c15)
		e.qdither = rng.NewNamed(seed, "maya/qdither")
	}
	e.ghat = e.balloonGainW
	e.prevUd, e.pprevU, e.prevY = 0, 0, 0
	e.havePrevY = false
	e.Targets = e.Targets[:0]
	e.lastGoodW, e.haveGood, e.holdUsed = 0, false, 0
	if e.flight != nil {
		e.flight.Reset()
	}
}

// StepPre carries the pre-controller half of one engine step from BeginStep
// to FinishStep: the mask components, the guard's verdict on the raw
// reading, and the tracking error the controller must consume. Decide
// runs the two halves back to back around one Controller.Step.
type StepPre struct {
	// Target is the closed-loop mask component issued this step.
	Target float64
	// DitherW is the open-loop high-frequency mask component (0 when the
	// dither is off).
	DitherW float64
	// PowerW is the sanitized measurement the controller and the NLMS gain
	// estimator see.
	PowerW float64
	// RawW is the reading as the sensor produced it; Rejected marks it
	// implausible (PowerW then holds the guard's substitute).
	RawW     float64
	Rejected bool
	// DeltaY is the tracking error to feed the controller: 0 at step 0
	// (no sensor reading exists yet; hold the operating point rather than
	// reacting to a bogus zero measurement), Target−PowerW afterwards. The
	// feedback loop tracks only the low-frequency component; the dither
	// would be invisible to it anyway (above loop bandwidth).
	DeltaY float64

	traced                   bool
	tMask, tSensor, tControl int64
}

// BeginStep runs the pre-controller phases of one engine step: mask draw,
// dither draw, target bookkeeping, and the measurement guard. The caller
// must follow with exactly one controller step on pre.DeltaY and one
// FinishStep. Decide composes the three; calling them apart lets a caller
// time each half.
//
//maya:hotpath
func (e *Engine) BeginStep(step int, powerW float64) StepPre {
	var pre StepPre
	// Phase timestamps for the sampled-tick trace. All reads go through the
	// tracer's clock (blessed inside telemetry); when the tick is not
	// sampled the whole path is zero-assignments and one branch.
	pre.traced = e.tracer.TickSampled(step)
	if pre.traced {
		pre.tMask = e.tracer.Clock()
	}
	pre.Target = e.gen.Next()
	if e.dither != nil && e.balloonGainW > 0 {
		pre.DitherW = e.dither.Next()
	}
	// The recorded target is the full mask shape: the closed-loop
	// component plus the open-loop high-frequency component.
	e.Targets = append(e.Targets, pre.Target+pre.DitherW)

	if pre.traced {
		pre.tSensor = e.tracer.Clock()
	}
	// Measurement guard: reject non-finite or implausible readings before
	// anything downstream (controller, NLMS gain estimator) consumes them.
	pre.RawW = powerW
	if e.guard != nil && step > 0 {
		powerW, pre.Rejected = e.sanitize(powerW, pre.Target)
		if pre.Rejected && e.metrics != nil {
			e.metrics.GlitchRejects.Inc()
		}
	}
	pre.PowerW = powerW

	if pre.traced {
		pre.tControl = e.tracer.Clock()
	}
	if step > 0 {
		pre.DeltaY = pre.Target - powerW
	}
	return pre
}

// FinishStep runs the post-controller phases of one engine step: blow-up
// recovery, the NLMS dither-gain update, open-loop dither injection,
// quantization dither, actuation, and telemetry. u is the output of ctl's
// step on pre.DeltaY; Decide passes the engine's own controller.
//
//maya:hotpath
func (e *Engine) FinishStep(step int, pre StepPre, u []float64, ctl *control.Controller) sim.Inputs {
	// Blow-up recovery: re-initialize the controller at the identified
	// operating point when its state norm diverges (sustained saturation
	// or fault bursts). The emitted u buffer survives Reset.
	reinit := false
	if e.guard != nil && e.guard.StateNormLimit > 0 && ctl.StateNorm() > e.guard.StateNormLimit {
		ctl.Reset()
		reinit = true
		if e.metrics != nil {
			e.metrics.StateReinits.Inc()
		}
	}
	var tActuate int64
	if pre.traced {
		tActuate = e.tracer.Clock()
	}
	powerW := pre.PowerW
	u2 := u[2]
	if e.dither != nil && e.balloonGainW > 0 {
		// Update the gain estimate: the dither applied for the period that
		// powerW measured was prevUd; its first difference against the
		// one before isolates the above-bandwidth response.
		if e.havePrevY && step > 1 {
			uhp := e.prevUd - e.pprevU
			yhp := powerW - e.prevY
			const mu, eps = 0.2, 1e-3
			if uhp != 0 {
				e.ghat += mu * uhp * (yhp - e.ghat*uhp) / (eps + uhp*uhp)
			}
			lo, hi := 0.25*e.balloonGainW, 4*e.balloonGainW
			if e.ghat < lo {
				e.ghat = lo
			}
			if e.ghat > hi {
				e.ghat = hi
			}
		}
		e.prevY = powerW
		e.havePrevY = true
	}
	if pre.DitherW != 0 {
		// High-frequency mask component, actuated open-loop on the balloon,
		// normalized by the adaptive gain estimate.
		ud := pre.DitherW / e.ghat
		u2 += ud
		if u2 < 0 {
			u2 = 0
		}
		if u2 > 1 {
			u2 = 1
		}
		e.pprevU = e.prevUd
		e.prevUd = ud
	} else {
		e.pprevU = e.prevUd
		e.prevUd = 0
	}
	uq := [3]float64{u[0], u[1], u2}
	if e.qdither != nil {
		// ±half-step randomization before the knobs snap to their ladders.
		steps := [3]float64{
			e.knobs.DVFS.Step / (e.knobs.DVFS.Max - e.knobs.DVFS.Min),
			e.knobs.Idle.Step / (e.knobs.Idle.Max - e.knobs.Idle.Min),
			e.knobs.Balloon.Step / (e.knobs.Balloon.Max - e.knobs.Balloon.Min),
		}
		for j := range uq {
			uq[j] += e.qdither.Uniform(-0.5, 0.5) * steps[j]
		}
	}
	d, idle, b, clipped := e.knobs.FromNormsInfo(uq)
	if pre.traced {
		tEnd := e.tracer.Clock()
		seq := uint64(step)
		e.tracer.Complete("tick.mask", "engine", e.traceCtx, seq, pre.tMask, pre.tSensor-pre.tMask, int64(step))
		e.tracer.Complete("tick.sensor", "engine", e.traceCtx, seq, pre.tSensor, pre.tControl-pre.tSensor, int64(step))
		e.tracer.Complete("tick.control", "engine", e.traceCtx, seq, pre.tControl, tActuate-pre.tControl, int64(step))
		e.tracer.Complete("tick.actuate", "engine", e.traceCtx, seq, tActuate, tEnd-tActuate, int64(step))
	}

	if e.metrics != nil {
		e.metrics.Steps.Inc()
		if ctl.Saturated() {
			e.metrics.Saturations.Inc()
		}
		for _, c := range clipped {
			if c {
				e.metrics.QuantClips.Inc()
			}
		}
		if step > 0 {
			err := pre.Target + pre.DitherW - powerW
			if err < 0 {
				err = -err
			}
			e.metrics.AbsErrorW.Observe(err)
		}
		e.metrics.StateNorm.Set(ctl.StateNorm())
	}
	if e.flight != nil {
		rec := telemetry.FlightRecord{
			Step:      step,
			TargetW:   pre.Target + pre.DitherW,
			MeasuredW: powerW,
			ErrorW:    pre.Target + pre.DitherW - powerW,
			U:         uq,
			Applied:   [3]float64{d, idle, b},
			Saturated: ctl.Saturated(),
			Clipped:   clipped,
			StateNorm: ctl.StateNorm(),
		}
		if pre.Rejected {
			rec.Rejected = true
			// JSON cannot carry NaN/±Inf; non-finite raw readings are
			// recorded as 0 (the Rejected flag still marks them).
			if !math.IsNaN(pre.RawW) && !math.IsInf(pre.RawW, 0) {
				rec.RawW = pre.RawW
			}
		}
		rec.StateReinit = reinit
		e.flight.Record(rec)
	}
	return sim.Inputs{FreqGHz: d, Idle: idle, Balloon: b}
}

// Decide implements sim.Policy: one Maya wake-up. This is the per-tick
// engine step, on the 20 ms control period; hotalloc keeps formatting and
// boxing off it (the telemetry zero-alloc benchmark gate measures the same
// property at run time).
//
//maya:hotpath
func (e *Engine) Decide(step int, powerW float64) sim.Inputs {
	pre := e.BeginStep(step, powerW)
	u := e.ctl.Step(pre.DeltaY)
	return e.FinishStep(step, pre, u, e.ctl)
}

// MaskTargets returns the targets issued so far (one per Decide call).
// Callers running through sim.Run align entry FirstStep+t with recorded
// sample t.
func (e *Engine) MaskTargets() []float64 { return e.Targets }

// Design holds everything produced by the §V-A pipeline for one machine.
type Design struct {
	Model      *sysid.Model
	Plant      *control.StateSpace
	Controller *control.Controller // prototype; Clone per run
	Report     *control.Report
	Band       mask.Band
}

// DesignOptions tune the identification and synthesis pipeline.
type DesignOptions struct {
	// Seed feeds the excitation streams.
	Seed uint64
	// Order is the ARX model order (paper: 4).
	Order int
	// PeriodTicks is the control period in simulator ticks (paper: 20 ms).
	PeriodTicks int
	// ExcitationTicks bounds each training run.
	ExcitationTicks int
	// Spec overrides the synthesis spec; nil uses the paper's defaults
	// (input weights 1, guardband 40%).
	Spec *control.Spec
}

// DefaultDesignOptions returns the paper's configuration.
func DefaultDesignOptions() DesignOptions {
	return DesignOptions{Seed: 1, Order: 4, PeriodTicks: 20, ExcitationTicks: 20000}
}

// DesignFor runs the full pipeline for a machine: collect excitation data
// on the training applications, fit the ARX model, realize it, synthesize
// the controller, and derive the mask band from the machine's idle floor
// and TDP.
func DesignFor(cfg sim.Config, opts DesignOptions) (*Design, error) {
	if opts.Order <= 0 {
		opts.Order = 4
	}
	if opts.PeriodTicks <= 0 {
		opts.PeriodTicks = 20
	}
	if opts.ExcitationTicks <= 0 {
		opts.ExcitationTicks = 20000
	}
	log := sysid.CollectExcitation(cfg, sysid.TrainingSet(), opts.Seed, opts.PeriodTicks, opts.ExcitationTicks)
	model, err := sysid.Fit(log.Y, log.U, opts.Order, 1e-6)
	if err != nil {
		return nil, fmt.Errorf("core: identification failed: %w", err)
	}
	plant := control.FromARX(model)
	if err := plant.Verify(model, 1e-6); err != nil {
		return nil, err
	}
	spec := control.DefaultSpec(3)
	if opts.Spec != nil {
		spec = *opts.Spec
	}
	ctl, rep, err := control.Synthesize(plant, spec)
	if err != nil {
		return nil, fmt.Errorf("core: synthesis failed: %w", err)
	}
	// The band's ceiling must be reachable: the TDP caps it (§V-B), and so
	// does the machine's actual burn capability (balloon flat out at max
	// DVFS). A target above what the actuators can deliver would saturate
	// the loop and leak whichever workload happens to be running.
	ceiling := 0.8 * cfg.TDP
	if m := 0.92 * maxBurnW(cfg); m < ceiling {
		ceiling = m
	}
	floor := idleFloorW(cfg)
	band := mask.Band{Min: floor + 0.1*(ceiling-floor), Max: ceiling}
	return &Design{Model: model, Plant: plant, Controller: ctl, Report: rep, Band: band}, nil
}

// maxBurnW estimates the highest sustainable power: balloon at full duty on
// every core at maximum frequency (activity ≈ 1.1), no idle injection.
func maxBurnW(cfg sim.Config) float64 {
	v := cfg.Voltage(cfg.FmaxGHz)
	return cfg.StaticCoeff*v/cfg.VMax + cfg.CdynPerCore*v*v*cfg.FmaxGHz*1.1*float64(cfg.Cores)
}

// idleFloorW estimates the machine's lowest reachable power (minimum
// frequency, maximum idle injection, no balloon) from the config's power
// model — the bottom anchor of the mask band.
func idleFloorW(cfg sim.Config) float64 {
	v := cfg.Voltage(cfg.FminGHz)
	static := cfg.StaticCoeff * v / cfg.VMax
	base := cfg.CdynPerCore * v * v * cfg.FminGHz * 0.03 * (1 - 0.48) * float64(cfg.Cores)
	return static + base
}

// NewGSEngine builds the proposed Maya GS configuration for a design: the
// Gaussian Sinusoid mask over the machine band at the loop's sampling rate,
// with its above-bandwidth components actuated open-loop on the balloon.
func NewGSEngine(d *Design, cfg sim.Config, periodTicks int, seed uint64) *Engine {
	sampleHz := 1 / (float64(periodTicks) * cfg.TickSeconds)
	gen := mask.NewGaussianSinusoid(d.Band, mask.DefaultHold(), sampleHz, seed)
	e := NewEngine(d.Controller.Clone(), gen, cfg.Knobs())
	e.dither = newHFDither(d.Band, sampleHz, 10, seed)
	// The balloon's true gain depends on machine load: the identified model
	// gives the average over busy training runs, while on an idle machine
	// the balloon burns several times more per duty step. Converting the
	// dither with either extreme would make the injected amplitude itself
	// load-dependent by that full ratio; the geometric mean bounds the
	// modulation symmetrically.
	fitted := 0.0
	if g := d.Model.DCGain(); len(g) == 3 && g[2] > 0.5 {
		fitted = g[2]
	}
	analytic := maxBurnW(cfg) - idleFloorW(cfg) // idle-machine balloon swing
	switch {
	case fitted > 0 && analytic > 0:
		e.balloonGainW = math.Sqrt(fitted * analytic)
	case fitted > 0:
		e.balloonGainW = fitted
	}
	return e
}

// NewConstantEngine builds the Maya Constant ablation: same controller,
// fixed target pinned at 40% of the band. As in the paper (§VII-E), the
// single level is "often lower than the power at which Baseline runs", so
// high-activity phases are throttled throughout and Maya Constant pays a
// larger execution-time overhead than Maya GS, whose moving target lets
// applications run at high power part of the time.
func NewConstantEngine(d *Design, cfg sim.Config) *Engine {
	level := d.Band.Min + 0.4*d.Band.Width()
	return NewEngine(d.Controller.Clone(), mask.NewConstant(level), cfg.Knobs())
}

// DitherGain returns the engine's current adaptive estimate of the
// balloon's watt-per-duty gain (telemetry; see the estimator notes on
// Engine).
func (e *Engine) DitherGain() float64 { return e.ghat }
