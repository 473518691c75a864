package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fault"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/mayad"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/trace"
	"github.com/maya-defense/maya/internal/workload"
)

// soloChecks is how many tenants per round are re-run alone and compared
// byte for byte with what the daemon served.
const soloChecks = 8

// fleetWorkload drives mayad through its HTTP API on an in-process
// loopback listener: admit every tenant, run them all to done, download
// every trace. One closed-loop client sends each request after the
// previous response has been read, on one keep-alive connection; the
// daemon runs one shard.
//
// fleet-uniform admits identical tenants before Start, so they share one
// bank. fleet-mixed admits tenants with pairwise distinct bank keys into a
// running daemon, so every tenant gets a bank of its own however the
// admissions interleave with the scheduler.
type fleetWorkload struct {
	env
	mixed bool

	// Built by setup.
	seed     uint64
	designs  map[string]*core.Design // by sim.Config.Name
	designNS map[string]int64        // how long each synthesis took
	specs    []mayad.TenantSpec
	bodies   [][]byte
	periods  float64 // tenant-periods a round steps, warmup included

	rounds int
}

func (w *fleetWorkload) setup(seed uint64) error {
	w.seed = seed
	if w.mixed {
		w.specs = mixedSpecs(seed, w.sz)
	} else {
		w.specs = uniformSpecs(seed, w.sz)
	}
	w.designs = make(map[string]*core.Design)
	w.designNS = make(map[string]int64)
	w.bodies = make([][]byte, len(w.specs))
	w.periods = 0
	for i, sp := range w.specs {
		cfg, _ := sim.PresetByName(sp.Machine)
		kind, _ := defense.KindByName(sp.Defense)
		if kind.IsMaya() && w.designs[cfg.Name] == nil {
			t0 := time.Now()
			art, err := core.DesignFor(cfg, core.DefaultDesignOptions())
			if err != nil {
				return err
			}
			w.designs[cfg.Name] = art
			w.designNS[cfg.Name] = time.Since(t0).Nanoseconds()
		}
		body, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		w.bodies[i] = body
		w.periods += float64(sp.WarmupTicks+sp.MaxTicks) / mayad.PeriodTicks
	}
	return nil
}

// design hands the daemon the artifacts setup synthesized: a long-running
// daemon synthesizes once per machine, so the rounds stand for its steady
// state.
func (w *fleetWorkload) design(cfg sim.Config) (*core.Design, error) {
	if art := w.designs[cfg.Name]; art != nil {
		return art, nil
	}
	return nil, fmt.Errorf("no design synthesized for %s", cfg.Name)
}

func (w *fleetWorkload) pass(_ context.Context, tr *telemetry.Tracer, parent telemetry.SpanContext) (pass, error) {
	round := w.rounds
	w.rounds++
	n := len(w.specs)
	srv := mayad.New(mayad.Config{Shards: 1, MaxTenants: n, QueueDepth: n, DesignFor: w.design}, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()
	c := client{hc: ts.Client(), base: ts.URL, tally: w.tally}

	span := tr.Start("fleet.round", "bench", parent, uint64(round))
	sc := span.Context()
	start := time.Now()
	if w.mixed {
		srv.Start()
	}
	ids := make([]int, n)
	lat := make([]float64, n)
	for i, body := range w.bodies {
		sp := tr.Start("http.admit", "mayad", sc, uint64(i))
		t0 := time.Now()
		ids[i] = c.admit(body)
		lat[i] = ms(time.Since(t0))
		sp.End()
	}
	run := tr.Start("mayad.run", "mayad", sc, 0)
	if !w.mixed {
		srv.Start()
	}
	for srv.Resident() > 0 {
		time.Sleep(time.Millisecond)
	}
	run.End()
	var tracesCSV []byte
	if !w.mixed {
		sp := tr.Start("http.traces_csv", "mayad", sc, 0)
		tracesCSV = c.get("/traces.csv")
		sp.End()
	}
	traces := make([][]byte, n)
	flights := make([][]byte, n)
	for i, id := range ids {
		if id < 0 {
			continue
		}
		sp := tr.Start("http.trace", "mayad", sc, uint64(i))
		traces[i] = c.get(fmt.Sprintf("/tenants/%d/trace?format=mayt", id))
		if w.specs[i].Flight {
			flights[i] = c.get(fmt.Sprintf("/tenants/%d/flight", id))
		}
		sp.End()
	}
	wall := time.Since(start)
	span.End()

	// Output checks, outside the timed region.
	h := sha256.New()
	writeFrame(h, tracesCSV)
	for i := range traces {
		writeFrame(h, traces[i])
		writeFrame(h, flights[i])
	}
	if round == 0 && !w.mixed {
		w.checkCSV(tracesCSV)
	}
	w.checkSolo(round, traces, flights)
	return pass{wall: wall, work: w.periods, latMS: lat, digest: hex.EncodeToString(h.Sum(nil))}, nil
}

// checkCSV checks that /traces.csv parses, with one row per recorded
// control period of every tenant.
func (w *fleetWorkload) checkCSV(body []byte) {
	rows, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
	want := 1
	for _, sp := range w.specs {
		want += sp.MaxTicks / mayad.PeriodTicks
	}
	w.tally.check(err == nil && len(rows) == want && rows[0][0] == "tenant",
		"/traces.csv: %d rows, want %d (%v)", len(rows), want, err)
}

// checkSolo re-runs soloChecks tenants, sampled from the seed and the
// round, alone in a fleet of one, and compares the MAYT trace and flight
// JSONL the daemon served with that run's, byte for byte.
func (w *fleetWorkload) checkSolo(round int, traces, flights [][]byte) {
	r := rng.New(rng.ChildSeed(w.seed, uint64(round)))
	perm := r.Perm(len(w.specs))
	for _, i := range perm[:min(soloChecks, len(perm))] {
		sp := w.specs[i]
		cfg, _ := sim.PresetByName(sp.Machine)
		mayt, flight, err := soloOutputs(sp, w.designs[cfg.Name])
		w.tally.check(err == nil && bytes.Equal(mayt, traces[i]) && bytes.Equal(flight, flights[i]),
			"tenant %d %+v: download differs from a solo fleet run (%v)", i, sp, err)
	}
}

// soloOutputs runs one tenant spec as a fleet of one and encodes its
// trace as mayad's trace?format=mayt endpoint does, plus its flight JSONL
// when recorded.
func soloOutputs(sp mayad.TenantSpec, art *core.Design) (mayt, flight []byte, err error) {
	spec, err := soloSpec(sp, art)
	if err != nil {
		return nil, nil, err
	}
	res := fleet.New(spec).Run()[0]
	var b bytes.Buffer
	if err := tenantDataset(sp, spec.Config, res).WriteBinary(&b); err != nil {
		return nil, nil, err
	}
	if res.Flight == nil {
		return b.Bytes(), nil, nil
	}
	var fb bytes.Buffer
	if err := res.Flight.Flush(&fb); err != nil {
		return nil, nil, err
	}
	return b.Bytes(), fb.Bytes(), nil
}

// soloSpec is the fleet.Spec mayad builds for a bank holding only sp.
func soloSpec(sp mayad.TenantSpec, art *core.Design) (fleet.Spec, error) {
	cfg, _ := sim.PresetByName(sp.Machine)
	kind, _ := defense.KindByName(sp.Defense)
	spec := fleetSpec(cfg, kind, art, []mayad.TenantSpec{sp})
	if sp.Faults != "" {
		plan, ok := fault.PlanByName(sp.Faults)
		if !ok {
			return fleet.Spec{}, fmt.Errorf("unknown fault plan %q", sp.Faults)
		}
		spec.Plan = plan
		if kind.IsMaya() {
			g := core.DefaultGuard(cfg)
			spec.Guard = &g
		}
	}
	if sp.Flight {
		spec.FlightCapacity = sp.WarmupTicks/mayad.PeriodTicks + sp.MaxTicks/mayad.PeriodTicks + 8
	}
	return spec, nil
}

// fleetSpec is the fault-free fleet.Spec of one bank of tenants that share
// machine, defense, workload and durations, each slot seeded from its
// own spec.
func fleetSpec(cfg sim.Config, kind defense.Kind, art *core.Design, tenants []mayad.TenantSpec) fleet.Spec {
	lead := tenants[0]
	spec := fleet.Spec{
		Config:      cfg,
		Kind:        kind,
		PeriodTicks: mayad.PeriodTicks,
		Tenants:     len(tenants),
		SeedAt: func(t int) (uint64, uint64, uint64, uint64) {
			return fleet.TenantSeeds(tenants[t].Seed, tenants[t].Index)
		},
		WarmupTicks: lead.WarmupTicks,
		MaxTicks:    lead.MaxTicks,
	}
	if kind.IsMaya() {
		spec.Art = art
	}
	if lead.Workload != "idle" {
		name, scale := lead.Workload, lead.Scale
		spec.NewWorkload = func() workload.Workload {
			w, err := workload.New(name, scale)
			if err != nil {
				panic(err) // the specs name only catalog workloads
			}
			return w
		}
	}
	return spec
}

// tenantDataset wraps one tenant's period trace as mayad serves it: a
// one-trace dataset named after the workload.
func tenantDataset(sp mayad.TenantSpec, cfg sim.Config, res fleet.TenantResult) *trace.Dataset {
	d := &trace.Dataset{ClassNames: []string{sp.Workload}}
	d.Add(0, float64(mayad.PeriodTicks)*cfg.TickSeconds*1000, res.DefenseSamples)
	return d
}

// specSeed is the tenant seed a fleet workload admits with. mayad reads a
// zero seed as "use the default", so it is never zero.
func specSeed(seed uint64) uint64 {
	if s := rng.ChildSeed(seed, 0xf1ee7); s != 0 {
		return s
	}
	return 1
}

// uniformSpecs is fleet-uniform's round: identical sys1 / Maya GS /
// blackscholes tenants, indices 0..N-1 of one seed.
func uniformSpecs(seed uint64, sz sizes) []mayad.TenantSpec {
	specs := make([]mayad.TenantSpec, sz.uniformTenants)
	for i := range specs {
		specs[i] = mayad.TenantSpec{
			Machine: "sys1", Defense: "gs", Workload: "blackscholes", Scale: 0.02,
			Seed: specSeed(seed), Index: i,
			WarmupTicks: sz.warmupTicks, MaxTicks: sz.uniformTicks,
		}
	}
	return specs
}

// mixedSpecs is fleet-mixed's round, drawn from the seed: every machine,
// defense and catalog program, a recorded length between mixedMinTicks and
// mixedMaxTicks, a quarter of the tenants under the kitchen-sink fault
// plan and about half the Maya tenants with a flight recorder.
//
// The draw is stratified, so the round's total work does not depend on
// the seed: every machine/defense pair appears equally often, the
// recorded lengths are one fixed evenly spaced set, and exactly a quarter
// of the tenants are faulted. The seed decides which tenant gets which
// pair, length, program, fault plan and flight recorder. The lengths are
// pairwise distinct, so no two tenants share a bank key.
func mixedSpecs(seed uint64, sz sizes) []mayad.TenantSpec {
	r := rng.New(rng.ChildSeed(seed, 0x313ed))
	programs := append([]string(nil), workload.AppNames...)
	for _, v := range workload.VideoNames {
		programs = append(programs, "video/"+v)
	}
	for _, p := range workload.PageNames {
		programs = append(programs, "web/"+p)
	}
	n := sz.mixedTenants
	pairs, lengths, faulted, flight := r.Perm(n), r.Perm(n), r.Perm(n), r.Perm(n)
	lo, hi := sz.mixedMinTicks/mayad.PeriodTicks, sz.mixedMaxTicks/mayad.PeriodTicks
	kinds := defense.KindNames
	specs := make([]mayad.TenantSpec, n)
	for i := range specs {
		pair := pairs[i] % (len(sim.PresetNames) * len(kinds))
		periods := lo
		if n > 1 {
			periods += (lengths[i]*(hi-lo) + (n-1)/2) / (n - 1)
		}
		sp := mayad.TenantSpec{
			Machine:     sim.PresetNames[pair/len(kinds)],
			Defense:     kinds[pair%len(kinds)],
			Workload:    programs[r.Intn(len(programs))],
			Scale:       0.2,
			Seed:        specSeed(seed),
			Index:       i,
			WarmupTicks: sz.warmupTicks,
			MaxTicks:    mayad.PeriodTicks * periods,
		}
		if faulted[i] < n/4 {
			sp.Faults = "kitchen-sink"
		}
		if kind, _ := defense.KindByName(sp.Defense); kind.IsMaya() {
			sp.Flight = flight[i]%2 == 0
		}
		specs[i] = sp
	}
	return specs
}

// client is the benchmark's HTTP client. It sends one request at a time
// and reads every response to the end, so the transport keeps reusing one
// connection.
type client struct {
	hc    *http.Client
	base  string
	tally *tally
}

// admit POSTs one tenant spec and returns the tenant's id, or -1 when the
// daemon did not answer 201.
func (c client) admit(body []byte) int {
	resp, err := c.hc.Post(c.base+"/tenants", "application/json", bytes.NewReader(body))
	if !c.tally.check(err == nil, "POST /tenants: %v", err) {
		return -1
	}
	defer resp.Body.Close()
	var st mayad.TenantStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	_, _ = io.Copy(io.Discard, resp.Body) // drain the rest so the connection is reused
	if !c.tally.check(resp.StatusCode == http.StatusCreated && err == nil, "POST /tenants: status %d (%v)", resp.StatusCode, err) {
		return -1
	}
	return st.ID
}

// get fetches path and returns the body, or nil when the daemon did not
// answer 200.
func (c client) get(path string) []byte {
	resp, err := c.hc.Get(c.base + path)
	if !c.tally.check(err == nil, "GET %s: %v", path, err) {
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if !c.tally.check(resp.StatusCode == http.StatusOK && err == nil, "GET %s: status %d (%v)", path, resp.StatusCode, err) {
		return nil
	}
	return body
}

// writeFrame hashes b with its length, so adjacent parts cannot run
// together. Writes to a hash.Hash never fail.
func writeFrame(h hash.Hash, b []byte) {
	fmt.Fprintf(h, "%d:", len(b))
	h.Write(b)
}
