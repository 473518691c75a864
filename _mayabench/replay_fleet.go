package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"github.com/maya-defense/maya/internal/control"
	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/workload"
)

// This file replays fleet.Engine one layer call at a time, to split the
// control phase that fleet.Metrics times as a whole. It calls finer
// functions than the rest of the benchmark (core.Engine.BeginStep and
// FinishStep, control.Bank.StepAll, the sim.MachineBank kernels), which a
// refactor of the fleet path may reshape; the end-to-end workloads never
// depend on it.

// The three halves of a control step, in the order they run.
const (
	stageBeginStep  = "core.begin_step"   // Engine.BeginStep for every tenant
	stageCtlStep    = "control.bank_step" // control.Bank.StepAll, the batched controller
	stageFinishStep = "core.finish_step"  // Engine.FinishStep for every tenant
)

var replayStages = []string{stageBeginStep, stageCtlStep, stageFinishStep}

// replayFleet steps spec — a fault-free Maya fleet without flight recorders,
// the shape of fleet-uniform's bank — through the calls fleet.Engine makes,
// and records the traces it records. It times the control steps of the
// recorded run on clk, stage by stage, and returns each stage's total ns
// and every tenant's runDigest, which must equal the digest of the
// fleet.Engine result for the same spec.
func replayFleet(spec fleet.Spec, clk layerClock) (map[string]int64, [][sha256.Size]byte, error) {
	T, P := spec.Tenants, spec.PeriodTicks
	machineSeeds := make([]uint64, T)
	for t := range machineSeeds {
		machineSeeds[t], _, _, _ = spec.SeedAt(t)
	}
	bank := sim.NewMachineBank(spec.Config, machineSeeds)
	design := defense.NewDesign(spec.Kind, spec.Config, spec.Art, P)
	sensors := make([]*sim.BankRAPLSensor, T)
	engines := make([]*core.Engine, T)
	works := make([]workload.Workload, T)
	idle := make([]workload.Workload, T)
	for t := 0; t < T; t++ {
		_, ws, ps, _ := spec.SeedAt(t)
		sensors[t] = bank.Sensor(t)
		works[t] = spec.NewWorkload()
		works[t].Reset(ws)
		idle[t] = workload.Idle{}
		eng, ok := design.Policy(ps).(*core.Engine)
		if !ok {
			return nil, nil, fmt.Errorf("replay needs a Maya spec, got %v", spec.Kind)
		}
		engines[t] = eng
	}
	ctl := control.NewBank(spec.Art.Controller, T)

	pw := make([]float64, T)
	ins := make([]sim.Inputs, T)
	pres := make([]core.StepPre, T)
	deltaY := make([]float64, T)
	out := make([]sim.StepResult, T)
	total := make(map[string]int64, len(replayStages))
	timed := false // stages are timed in the recorded run only
	stage := func(name string, seq int, start int64) {
		if timed {
			total[name] += clk.span(name, uint64(seq), start)
		}
	}
	decide := func(step int) {
		t0 := clk.now()
		for t, eng := range engines {
			pres[t] = eng.BeginStep(step, pw[t])
			deltaY[t] = pres[t].DeltaY
		}
		stage(stageBeginStep, step, t0)
		t0 = clk.now()
		ctl.StepAll(deltaY, nil)
		stage(stageCtlStep, step, t0)
		t0 = clk.now()
		for t, eng := range engines {
			ins[t] = eng.FinishStep(step, pres[t], ctl.U(t), ctl.Tenant(t))
		}
		stage(stageFinishStep, step, t0)
		bank.SetInputsAll(ins)
	}
	// tick advances every machine one tick and, at a period boundary, reads
	// the sensors and runs the next control step. Recorded ticks append to
	// the per-tenant traces as the engine does.
	res := make([]fleet.TenantResult, T)
	step := 0
	tick := func(tickNo int, ws []workload.Workload, rec bool) {
		bank.StepAll(ws, out)
		for t, s := range sensors {
			s.Observe(out[t])
			if rec {
				r := out[t]
				res[t].TickPowerW = append(res[t].TickPowerW, r.PowerW)
				res[t].TickWallW = append(res[t].TickWallW, r.WallW)
				if r.Finished && res[t].FinishedTick < 0 {
					res[t].FinishedTick = int64(tickNo) + 1
				}
			}
		}
		if (tickNo+1)%P != 0 {
			return
		}
		for t, s := range sensors {
			pw[t] = s.ReadW()
			if rec {
				res[t].DefenseSamples = append(res[t].DefenseSamples, pw[t])
			}
		}
		step++
		decide(step)
		if rec {
			for t := range res {
				res[t].InputTrace = append(res[t].InputTrace, bank.Inputs(t))
			}
		}
	}

	decide(0)
	for i := 0; i < spec.WarmupTicks; i++ {
		tick(i, idle, false)
	}
	for t := range res {
		res[t].FinishedTick = -1
		res[t].InputTrace = append(res[t].InputTrace, bank.Inputs(t))
	}
	timed = true
	for i := 0; i < spec.MaxTicks; i++ {
		tick(i, works, true)
	}

	digests := make([][sha256.Size]byte, T)
	for t := range res {
		res[t].Targets = engines[t].Targets
		digests[t] = runDigest(res[t])
	}
	return total, digests, nil
}

// runDigest hashes the bits of what the replay must reproduce: per-tick
// power, per-period readings and inputs, and mask targets. Comparing
// digests instead of the traces lets the replay and the engine run one
// after the other, each holding only its own traces.
func runDigest(res fleet.TenantResult) [sha256.Size]byte {
	h := sha256.New()
	var buf []byte
	series := func(xs []float64) {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(xs)))
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
		h.Write(buf) // hash writes never fail
	}
	series(res.TickPowerW)
	series(res.DefenseSamples)
	series(res.Targets)
	ins := make([]float64, 0, 3*len(res.InputTrace))
	for _, in := range res.InputTrace {
		ins = append(ins, in.FreqGHz, in.Idle, in.Balloon)
	}
	series(ins)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
