package mayad

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/workload"
)

// command is one unit of scheduler work, delivered over the bounded queue.
type command struct {
	admit    *tenant
	evict    int
	hasEvict bool
}

// bankKey groups pending admissions that can share one fleet bank: the
// whole fleet.Spec apart from the per-slot seeds. Per-tenant independence
// means the grouping never shows in a trace — it only batches the
// arithmetic.
type bankKey struct {
	machine  string
	kind     defense.Kind
	workload string
	scale    float64
	warmup   int
	maxTicks int
	faults   string
	flight   bool
}

func (tn *tenant) key() bankKey {
	return bankKey{
		machine: tn.spec.Machine, kind: tn.kind,
		workload: tn.spec.Workload, scale: tn.spec.Scale,
		warmup: tn.spec.WarmupTicks, maxTicks: tn.spec.MaxTicks,
		faults: tn.spec.Faults, flight: tn.spec.Flight,
	}
}

// bank is one fleet engine in flight plus the tenants in its slots.
// Between passes the scheduler goroutine owns it; during a pass one pass
// worker does (see eachBank).
type bank struct {
	eng   *fleet.Engine
	slots []*tenant

	started bool // Start has run the warmup
	periods int  // recorded control periods stepped
	spilled int  // step of the readings last kept for the spill

	// The pass's period readings, kept by the pass worker for the
	// scheduler goroutine to spill after the join: steps[k] is the step
	// of the k-th period boundary the bank crossed in the pass, and
	// readings[k*len(slots):(k+1)*len(slots)] are its slots' readings.
	steps    []int
	readings []float64

	// Set by collect once the run is over: the result and flight JSONL of
	// every slot, for the scheduler goroutine to publish.
	done    bool
	results []fleet.TenantResult
	flights [][]byte
}

// scheduler steps every resident tenant: its goroutine drains commands,
// launches banks and runs the passes that advance them, and it talks to
// the rest of the daemon through the bounded cmds queue, brief Server.mu
// sections and the spill. Everything else here belongs to its goroutine
// and, during a pass, to the pass workers (see eachBank).
type scheduler struct {
	s    *Server
	cmds chan command
	stop chan struct{}

	banks []*bank
	// pending holds admitted tenants awaiting bank launch.
	pending []*tenant
	// readings is the pass's spill batch, reused across passes.
	readings []SpillSample
}

func newScheduler(s *Server) *scheduler {
	return &scheduler{
		s:    s,
		cmds: make(chan command, s.cfg.QueueDepth),
		stop: make(chan struct{}),
	}
}

// loop drains commands, launches pending tenants into banks, advances
// every bank passPeriods control periods, and repeats. With Config.Pace
// set it sleeps passPeriods × Pace after each pass, waking early for a
// drain. On stop it collects in-flight banks at the pass boundary, which
// is a period boundary, so every tenant holds a bit-identical prefix of
// its full run.
func (sc *scheduler) loop() {
	for {
		if len(sc.banks) == 0 && len(sc.pending) == 0 {
			// Idle: block until work or drain arrives.
			select {
			case cmd := <-sc.cmds:
				sc.handle(cmd)
			case <-sc.stop:
				sc.shutdown()
				return
			}
		}
	drain:
		for {
			select {
			case cmd := <-sc.cmds:
				sc.handle(cmd)
			default:
				break drain
			}
		}
		select {
		case <-sc.stop:
			sc.shutdown()
			return
		default:
		}
		sc.launch()
		sc.stepOnce()
		if pace := sc.s.cfg.Pace; pace > 0 && len(sc.banks) > 0 {
			t := time.NewTimer(passPeriods * pace)
			select {
			case <-t.C:
			case <-sc.stop:
				t.Stop()
			}
		}
	}
}

func (sc *scheduler) handle(cmd command) {
	if cmd.admit != nil {
		sc.pending = append(sc.pending, cmd.admit)
	}
	if cmd.hasEvict {
		sc.evict(cmd.evict)
	}
}

// evict moves a queued or banked tenant to evicted and counts it. A
// tenant that finished before the command arrived is left done.
func (sc *scheduler) evict(id int) {
	for i, tn := range sc.pending {
		if tn.id == id {
			sc.pending = append(sc.pending[:i], sc.pending[i+1:]...)
			sc.s.transition(tn, StateEvicted, fleet.TenantResult{}, nil)
			sc.s.met.Evicted.Inc()
			return
		}
	}
	for bi, b := range sc.banks {
		for slot, tn := range b.slots {
			if tn == nil || tn.id != id {
				continue
			}
			b.eng.Evict(slot)
			b.slots[slot] = nil
			sc.s.transition(tn, StateEvicted, fleet.TenantResult{}, nil)
			sc.s.met.Evicted.Inc()
			if b.eng.Alive() == 0 {
				// Every slot is dead: the bank is pure overhead, drop it.
				sc.removeBank(bi)
			}
			return
		}
	}
}

// maxBankTenants is the most tenants one bank holds. A pass steps each
// bank whole on one worker, so a big group of identical specs must split
// for the pass to spread it over every core; a 64-tenant bank still pays
// its per-period fixed costs once for many tenants.
const maxBankTenants = 64

// launch groups pending tenants by bank key and builds fleet banks for
// each group, which the next pass starts. Tenants admitted in one
// scheduler pass with identical specs share banks of at most
// maxBankTenants, filled in admission order; the grouping is invisible in
// their traces.
func (sc *scheduler) launch() {
	if len(sc.pending) == 0 {
		return
	}
	groups := make(map[bankKey][]*tenant)
	var order []bankKey
	for _, tn := range sc.pending {
		k := tn.key()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], tn)
	}
	sc.pending = sc.pending[:0]
	for _, k := range order {
		g := groups[k]
		for len(g) > maxBankTenants {
			sc.launchBank(g[:maxBankTenants])
			g = g[maxBankTenants:]
		}
		sc.launchBank(g)
	}
}

func (sc *scheduler) launchBank(group []*tenant) {
	lead := group[0]
	sp := lead.spec
	maya := lead.kind.IsMaya()

	var art *core.Design
	if maya {
		var err error
		art, err = sc.s.designs.Get(lead.cfg)
		if err != nil {
			for _, tn := range group {
				sc.s.fail(tn, err)
			}
			return
		}
	}

	spec := fleet.Spec{
		Config:      lead.cfg,
		Kind:        lead.kind,
		Art:         art,
		PeriodTicks: PeriodTicks,
		Tenants:     len(group),
		SeedAt: func(t int) (uint64, uint64, uint64, uint64) {
			return fleet.TenantSeeds(group[t].spec.Seed, group[t].spec.Index)
		},
		Plan:        lead.plan,
		WarmupTicks: sp.WarmupTicks,
		MaxTicks:    sp.MaxTicks,
		// The exports serve the period-level trace, inputs and targets;
		// nothing reads per-tick power.
		SkipTickTraces: true,
	}
	if sp.Workload != "idle" {
		name, scale := sp.Workload, sp.Scale
		spec.NewWorkload = func() workload.Workload {
			w, err := workload.New(name, scale)
			if err != nil {
				panic(err) // validated at admission
			}
			return w
		}
	}
	if sp.Faults != "" && maya {
		g := core.DefaultGuard(lead.cfg)
		spec.Guard = &g
	}
	if sp.Flight {
		spec.FlightCapacity = sp.WarmupTicks/PeriodTicks + sp.MaxTicks/PeriodTicks + 8
	}

	eng := fleet.New(spec)
	eng.SetMetrics(sc.s.fleetM)
	sc.banks = append(sc.banks, &bank{eng: eng, slots: append([]*tenant(nil), group...)})
	sc.s.met.Banks.Add(1)
	for _, tn := range group {
		sc.s.setState(tn, StateRunning)
	}
}

// passPeriods is how many control periods one scheduler pass advances
// each bank: half a second of simulated time, or less when the bank
// finishes. A pass is one fork/join over the banks, so the join, command
// handling, launches, the spill push and the drain check are paid once
// per passPeriods periods, and a bank's state stays in one core's cache
// while its worker steps it. Throughput keeps rising with the quantum;
// what bounds it is how long a command or a drain waits for the running
// pass. On a 2-vCPU Xeon a pass takes about 5 ms for the default 64
// tenants and 40–50 ms for 1000.
const passPeriods = 25

// stepOnce is one scheduler pass: every bank advances passPeriods control
// periods on the pass workers, then the scheduler goroutine spills the
// pass's readings, publishes the banks that finished in bank order, and
// drops the finished banks.
func (sc *scheduler) stepOnce() {
	sc.eachBank((*bank).advance)
	sc.spillReadings()
	for _, b := range sc.banks {
		if b.done {
			sc.publish(b, StateDone)
		}
	}
	before := len(sc.banks)
	sc.banks = slices.DeleteFunc(sc.banks, func(b *bank) bool { return b.done })
	sc.s.met.Banks.Add(-float64(before - len(sc.banks)))
}

// spillReadings pushes the readings the banks kept in this pass into the
// daemon's spill, period-major: the k-th period boundary of every bank,
// in bank and slot order, before the (k+1)-th of any bank. Each tenant's
// samples stay in step order, and when one pass overflows the ring the
// oldest periods are the ones dropped. Each sample is labelled with its
// slot's tenant id; evicted slots are skipped.
func (sc *scheduler) spillReadings() {
	out := sc.readings[:0]
	for k := range passPeriods {
		for _, b := range sc.banks {
			if k >= len(b.steps) {
				continue
			}
			row := b.readings[k*len(b.slots):]
			for slot, tn := range b.slots {
				if tn != nil {
					out = append(out, SpillSample{Tenant: tn.id, Step: b.steps[k], PowerW: row[slot]})
				}
			}
		}
	}
	sc.s.spill.push(out...)
	sc.readings = out
}

// eachBank runs fn on every bank, on min(GOMAXPROCS, banks) workers: the
// daemon's only fan-out, since a fleet engine runs on the goroutine that
// steps it. The scheduler goroutine is one worker and starts the others;
// each claims banks one at a time, and eachBank returns once every bank
// is done. A worker touches only its bank's engine and results and its
// tenants' tick counters; banks share nothing else but atomic fleet
// metrics and read-only designs, so the fan-out cannot show in a trace.
func (sc *scheduler) eachBank(fn func(*bank)) {
	banks := sc.banks
	var next atomic.Int32
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(banks) {
				return
			}
			fn(banks[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(banks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// advance is one bank's share of a pass: start the bank if it is new
// (its warmup), then step it passPeriods control periods, publishing its
// tenants' progress and keeping the readings of every period boundary
// crossed, and collect its results once the run is over. The warmup's
// readings and a trailing partial period keep none, since the step stands
// still.
func (b *bank) advance() {
	if !b.started {
		b.eng.Start()
		b.started = true
		b.spilled, _ = b.eng.Readings()
	}
	b.steps, b.readings = b.steps[:0], b.readings[:0]
	for range passPeriods {
		more := b.eng.StepPeriod()
		b.periods++
		for _, tn := range b.slots {
			if tn != nil {
				tn.tick.Store(int64(min(b.periods*PeriodTicks, tn.spec.MaxTicks)))
			}
		}
		if step, pw := b.eng.Readings(); step != b.spilled {
			b.spilled = step
			b.steps = append(b.steps, step)
			b.readings = append(b.readings, pw...)
		}
		if !more {
			b.collect()
			return
		}
	}
}

// collect reads the bank's results and flushes each flight recorder to
// JSONL bytes; the results are a bit-identical prefix of the full run
// when the daemon stops the run early.
func (b *bank) collect() {
	b.done = true
	b.results = b.eng.Results()
	b.flights = make([][]byte, len(b.results))
	for i := range b.results {
		f := b.results[i].Flight
		if f == nil {
			continue
		}
		var buf bytes.Buffer
		if err := f.Flush(&buf); err == nil {
			b.flights[i] = buf.Bytes()
		}
		b.results[i].Flight = nil
	}
}

// publish hands each surviving tenant of a collected bank its result:
// state is StateDone for natural completion, StateDrained when the daemon
// stopped the run early.
func (sc *scheduler) publish(b *bank, state string) {
	for slot, tn := range b.slots {
		if tn != nil {
			sc.s.transition(tn, state, b.results[slot], b.flights[slot])
		}
	}
}

func (sc *scheduler) removeBank(i int) {
	sc.banks = append(sc.banks[:i], sc.banks[i+1:]...)
	sc.s.met.Banks.Add(-1)
}

// shutdown drains the command queue (late admissions finalize empty, as
// drained), then collects every in-flight bank at the pass boundary, a
// period boundary, in parallel, and publishes them in bank order.
func (sc *scheduler) shutdown() {
	for {
		select {
		case cmd := <-sc.cmds:
			sc.handle(cmd)
		default:
			for _, tn := range sc.pending {
				sc.s.transition(tn, StateDrained, fleet.TenantResult{}, nil)
			}
			sc.pending = nil
			sc.eachBank((*bank).collect)
			for _, b := range sc.banks {
				sc.publish(b, StateDrained)
			}
			sc.banks = nil
			return
		}
	}
}
