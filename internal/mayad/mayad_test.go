package mayad_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/debugsrv"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/fleet/difftest"
	"github.com/maya-defense/maya/internal/mayad"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/trace"
	"github.com/maya-defense/maya/internal/workload"
)

// Short-run parameters shared by every test: 2 warmup periods + 20
// recorded periods keeps a full daemon round-trip in the -race budget.
// Such a run fits in one scheduler pass of 25 periods, so a test that
// must reach a tenant mid-run gives it pacedMaxTicks: 100 periods, four
// passes, each followed by a 25 × Config.Pace sleep.
const (
	testWarmup    = 40
	testMaxTicks  = 400
	pacedMaxTicks = 2000
	testScale     = 0.02
)

func testConfig() mayad.Config {
	return mayad.Config{
		DesignFor: func(cfg sim.Config) (*core.Design, error) {
			return difftest.DesignFor(cfg)
		},
	}
}

func testSpec(seed uint64, index int) mayad.TenantSpec {
	return mayad.TenantSpec{
		Workload: "blackscholes", Scale: testScale,
		Seed: seed, Index: index,
		MaxTicks: testMaxTicks, WarmupTicks: testWarmup,
		Flight: true,
	}
}

// pacedSpec is testSpec recording pacedMaxTicks: a tenant that spans
// several scheduler passes.
func pacedSpec(seed uint64, index int) mayad.TenantSpec {
	sp := testSpec(seed, index)
	sp.MaxTicks = pacedMaxTicks
	return sp
}

// refResults runs the mayactl-equivalent solo fleet for base seed S and N
// tenants of maxTicks recorded ticks: the byte-identity reference every
// daemon trace must match.
func refResults(t *testing.T, base uint64, tenants, maxTicks int) []fleet.TenantResult {
	t.Helper()
	cfg := sim.Sys1()
	art, err := difftest.DesignFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fleet.New(fleet.Spec{
		Config:      cfg,
		Kind:        defense.MayaGS,
		Art:         art,
		PeriodTicks: mayad.PeriodTicks,
		Tenants:     tenants,
		BaseSeed:    base,
		NewWorkload: func() workload.Workload {
			return workload.NewApp("blackscholes").Scale(testScale)
		},
		FlightCapacity: testWarmup/mayad.PeriodTicks + maxTicks/mayad.PeriodTicks + 8,
		WarmupTicks:    testWarmup,
		MaxTicks:       maxTicks,
	}).Run()
}

// admit POSTs a tenant spec and returns the response and decoded status.
func admit(t *testing.T, base string, sp mayad.TenantSpec) (*http.Response, mayad.TenantStatus) {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/tenants", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st mayad.TenantStatus
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// dbgServer runs the daemon behind the hardened debugsrv front end, the
// way cmd/mayad serves it: API plus /metrics on one listener.
type dbgServer struct {
	srv    *debugsrv.Server
	cancel context.CancelFunc
	url    string
}

func debugServe(s *mayad.Server) (*dbgServer, error) {
	ctx, cancel := context.WithCancel(context.Background())
	d, err := debugsrv.ServeHandler(ctx, "127.0.0.1:0", s.Registry(), s.Handler())
	if err != nil {
		cancel()
		return nil, err
	}
	return &dbgServer{srv: d, cancel: cancel, url: "http://" + d.Addr()}, nil
}

func (d *dbgServer) close() {
	d.cancel()
	d.srv.Wait()
}

// status GETs tenant id's status.
func status(t *testing.T, base string, id int) mayad.TenantStatus {
	t.Helper()
	code, body := get(t, fmt.Sprintf("%s/tenants/%d", base, id))
	if code != http.StatusOK {
		t.Fatalf("status %d for tenant %d: %s", code, id, body)
	}
	var st mayad.TenantStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls a tenant's status until it reaches one of the wanted
// states (1 ms cadence, bounded tries).
func waitState(t *testing.T, base string, id int, want ...string) mayad.TenantStatus {
	t.Helper()
	var st mayad.TenantStatus
	for tries := 0; tries < 20000; tries++ {
		st = status(t, base, id)
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("tenant %d stuck in %q, wanted %v", id, st.State, want)
	return st
}

// waitRecorded polls a tenant's status until its tick shows a recorded
// period (1 ms cadence, bounded tries).
func waitRecorded(t *testing.T, base string, id int) {
	t.Helper()
	for tries := 0; status(t, base, id).Tick == 0; tries++ {
		if tries == 20000 {
			t.Fatalf("tenant %d never recorded a period", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDaemonMatchesFleetAcrossShards is the tentpole acceptance test: N
// tenants admitted over HTTP carrying (seed S, index 0..N-1) must produce
// exactly the bytes of a solo fleet run with base seed S: the combined
// /traces.csv, each per-tenant trace export in every format, and each
// flight trace. Config.Shards is ignored now that one scheduler steps
// every bank, but callers still set it; each subtest sets a shard count
// the daemon once honoured and must still match byte for byte.
func TestDaemonMatchesFleetAcrossShards(t *testing.T) {
	const base, tenants = 0xda3e0, 4
	ref := refResults(t, base, tenants, testMaxTicks)
	var refCSV bytes.Buffer
	if err := fleet.WriteCSV(&refCSV, ref, nil); err != nil {
		t.Fatal(err)
	}
	// Flight recorders flush once; snapshot the reference bytes before
	// the subtests each compare against them.
	refFlight := make([][]byte, tenants)
	for i := range refFlight {
		var buf bytes.Buffer
		if err := ref[i].Flight.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		refFlight[i] = buf.Bytes()
	}

	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := testConfig()
			cfg.Shards = shards
			srv := mayad.New(cfg, nil)
			srv.Start()
			defer srv.Drain()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			for i := 0; i < tenants; i++ {
				resp, st := admit(t, ts.URL, testSpec(base, i))
				if resp.StatusCode != http.StatusCreated {
					t.Fatalf("admit %d: status %d", i, resp.StatusCode)
				}
				if st.ID != i {
					t.Fatalf("admit %d: got id %d", i, st.ID)
				}
			}
			for i := 0; i < tenants; i++ {
				st := waitState(t, ts.URL, i, mayad.StateDone)
				if st.Samples != testMaxTicks/mayad.PeriodTicks {
					t.Fatalf("tenant %d: %d samples, want %d", i, st.Samples, testMaxTicks/mayad.PeriodTicks)
				}
			}

			code, gotCSV := get(t, ts.URL+"/traces.csv")
			if code != http.StatusOK {
				t.Fatalf("/traces.csv: status %d", code)
			}
			if !bytes.Equal(gotCSV, refCSV.Bytes()) {
				t.Fatalf("/traces.csv differs from solo fleet run (%d vs %d bytes)", len(gotCSV), refCSV.Len())
			}

			for i := 0; i < tenants; i++ {
				d := &trace.Dataset{ClassNames: []string{"blackscholes"}}
				d.Add(0, 20, ref[i].DefenseSamples)
				var want bytes.Buffer
				if err := d.WriteCSV(&want); err != nil {
					t.Fatal(err)
				}
				if _, got := get(t, fmt.Sprintf("%s/tenants/%d/trace", ts.URL, i)); !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("tenant %d csv trace differs", i)
				}
				want.Reset()
				if err := d.WriteBinary(&want); err != nil {
					t.Fatal(err)
				}
				if _, got := get(t, fmt.Sprintf("%s/tenants/%d/trace?format=mayt", ts.URL, i)); !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("tenant %d mayt trace differs", i)
				}
				if _, got := get(t, fmt.Sprintf("%s/tenants/%d/flight", ts.URL, i)); !bytes.Equal(got, refFlight[i]) {
					t.Fatalf("tenant %d flight trace differs", i)
				}
			}
		})
	}
}

// TestChurnSurvivorsMatchSoloRuns evicts one tenant mid-run over HTTP and
// checks the survivors still finish byte-identical to their solo
// reference — co-residency and churn must never show in a trace — and
// that the evicted tenant ends evicted, not done.
func TestChurnSurvivorsMatchSoloRuns(t *testing.T) {
	const base, tenants = 0xc0ffee, 3
	ref := refResults(t, base, tenants, pacedMaxTicks)

	cfg := testConfig()
	// Stretch the four-pass runs (25 ms a pass) so the evict lands mid-flight.
	cfg.Pace = time.Millisecond
	srv := mayad.New(cfg, nil)
	srv.Start()
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < tenants; i++ {
		if resp, _ := admit(t, ts.URL, pacedSpec(base, i)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d failed", i)
		}
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/tenants/1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict: status %d", resp.StatusCode)
	}

	for _, i := range []int{0, 2} {
		st := waitState(t, ts.URL, i, mayad.StateDone)
		if st.EnergyJ != ref[i].EnergyJ {
			t.Fatalf("tenant %d energy %v != %v", i, st.EnergyJ, ref[i].EnergyJ)
		}
		d := &trace.Dataset{ClassNames: []string{"blackscholes"}}
		d.Add(0, 20, ref[i].DefenseSamples)
		var want bytes.Buffer
		if err := d.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if _, got := get(t, fmt.Sprintf("%s/tenants/%d/trace", ts.URL, i)); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("survivor %d trace differs from solo run", i)
		}
	}
	if st := status(t, ts.URL, 1); st.State != mayad.StateEvicted {
		t.Fatalf("evicted tenant ended %q, want %q", st.State, mayad.StateEvicted)
	}
}

// TestAdmissionShedsWhenFull drives admission past MaxTenants and checks
// the shed path end to end: 503, Retry-After, and the counter visible in
// a /metrics scrape through the hardened debugsrv front end.
func TestAdmissionShedsWhenFull(t *testing.T) {
	cfg := testConfig()
	cfg.MaxTenants = 2
	cfg.Pace = time.Millisecond
	srv := mayad.New(cfg, nil)
	srv.Start()
	defer srv.Drain()

	dbg, err := debugServe(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.close()
	base := dbg.url

	// The first two tenants stay resident for four paced passes.
	for i := 0; i < 2; i++ {
		if resp, _ := admit(t, base, pacedSpec(0xfeed, i)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d failed", i)
		}
	}
	resp, _ := admit(t, base, pacedSpec(0xfeed, 2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload admit: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}

	code, metrics := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if !strings.Contains(string(metrics), "mayad_admission_shed_total 1") {
		t.Fatalf("shed counter missing from /metrics:\n%s", metrics)
	}
	if !strings.Contains(string(metrics), "mayad_admitted_total 2") {
		t.Fatalf("admitted counter missing from /metrics")
	}
}

// TestShardQueueShedsWhenStalled fills a depth-1 scheduler queue on a
// server whose scheduler was never started: the second admission must
// shed rather than block the HTTP handler.
func TestShardQueueShedsWhenStalled(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 1
	srv := mayad.New(cfg, nil) // Start intentionally not called
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _ := admit(t, ts.URL, testSpec(1, 0)); resp.StatusCode != http.StatusCreated {
		t.Fatal("first admit should fill the queue")
	}
	resp, _ := admit(t, ts.URL, testSpec(1, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue-full admit: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full shed lost its Retry-After header")
	}
}

// TestDrainFlushesPrefixAndSpools stops the daemon mid-run and checks the
// graceful-drain contract: tenants finalize as bit-identical prefixes of
// their full runs, admissions shed 503 while draining, and traces land in
// the spool directory.
func TestDrainFlushesPrefixAndSpools(t *testing.T) {
	const base = 0xd7a1
	ref := refResults(t, base, 1, pacedMaxTicks)

	cfg := testConfig()
	cfg.Pace = 2 * time.Millisecond
	cfg.SpoolDir = t.TempDir()
	srv := mayad.New(cfg, nil)
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _ := admit(t, ts.URL, pacedSpec(base, 0)); resp.StatusCode != http.StatusCreated {
		t.Fatal("admit failed")
	}
	// Drain once the tenant has recorded a pass, while it sleeps before
	// the next of its four.
	waitRecorded(t, ts.URL, 0)
	srv.Drain()

	st := status(t, ts.URL, 0)
	if st.State != mayad.StateDrained {
		t.Fatalf("tenant ended %q after a mid-run drain, want %q", st.State, mayad.StateDrained)
	}
	if st.Samples == 0 || st.Samples >= len(ref[0].DefenseSamples) {
		t.Fatalf("drained with %d of %d samples, not mid-run", st.Samples, len(ref[0].DefenseSamples))
	}

	if resp, _ := admit(t, ts.URL, testSpec(base, 1)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admission during drain: status %d, want 503", resp.StatusCode)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining: %d %s", code, body)
	}

	// The drained trace is a bit-identical prefix of the solo run.
	_, got := get(t, ts.URL+"/tenants/0/trace")
	d := &trace.Dataset{ClassNames: []string{"blackscholes"}}
	d.Add(0, 20, ref[0].DefenseSamples[:st.Samples])
	var want bytes.Buffer
	if err := d.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("drained trace is not a prefix of the solo run")
	}

	spooled, err := trace.ReadDatasetFile(cfg.SpoolDir+"/tenant-0.mayt", nil)
	if err != nil {
		t.Fatalf("spooled trace unreadable: %v", err)
	}
	if len(spooled.Traces) != 1 || len(spooled.Traces[0].Samples) != st.Samples {
		t.Fatalf("spooled trace has wrong shape: %d traces", len(spooled.Traces))
	}
}

// drainSpill GETs /spill and decodes the drained samples.
func drainSpill(t *testing.T, base string) []mayad.SpillSample {
	t.Helper()
	code, body := get(t, base+"/spill")
	if code != http.StatusOK {
		t.Fatalf("/spill: status %d", code)
	}
	var samples []mayad.SpillSample
	if err := json.Unmarshal(body, &samples); err != nil {
		t.Fatal(err)
	}
	return samples
}

// spilledBy groups drained samples by tenant id, failing on any sample
// labelled with an id outside ids.
func spilledBy(t *testing.T, samples []mayad.SpillSample, ids ...int) map[int][]mayad.SpillSample {
	t.Helper()
	out := make(map[int][]mayad.SpillSample)
	for _, id := range ids {
		out[id] = nil
	}
	for _, smp := range samples {
		if _, ok := out[smp.Tenant]; !ok {
			t.Fatalf("spill sample for tenant %d, want one of %v", smp.Tenant, ids)
		}
		out[smp.Tenant] = append(out[smp.Tenant], smp)
	}
	return out
}

// checkSpilledPrefix requires a tenant's spilled samples to be a prefix of
// its recorded run: its period readings, at consecutive steps from the
// first recorded one.
func checkSpilledPrefix(t *testing.T, got []mayad.SpillSample, want fleet.TenantResult) {
	t.Helper()
	if len(got) > len(want.DefenseSamples) {
		t.Fatalf("spilled %d samples, the run records %d", len(got), len(want.DefenseSamples))
	}
	for i, smp := range got {
		if smp.Step != want.FirstStep+1+i || smp.PowerW != want.DefenseSamples[i] {
			t.Fatalf("spilled sample %d is %+v, want step %d power %v",
				i, smp, want.FirstStep+1+i, want.DefenseSamples[i])
		}
	}
}

// TestSpillDrainStreams checks the observation tap: a tenant that finishes
// before anyone drains leaves exactly its recorded period readings in
// /spill, labelled with its id, at consecutive steps.
func TestSpillDrainStreams(t *testing.T) {
	const base = 0x5b11
	ref := refResults(t, base, 1, testMaxTicks)[0]
	srv := mayad.New(testConfig(), nil)
	srv.Start()
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _ := admit(t, ts.URL, testSpec(base, 0)); resp.StatusCode != http.StatusCreated {
		t.Fatal("admit failed")
	}
	waitState(t, ts.URL, 0, mayad.StateDone)

	got := spilledBy(t, drainSpill(t, ts.URL), 0)[0]
	if len(got) != len(ref.DefenseSamples) {
		t.Fatalf("spilled %d samples, the run records %d", len(got), len(ref.DefenseSamples))
	}
	checkSpilledPrefix(t, got, ref)
	if rest := drainSpill(t, ts.URL); len(rest) != 0 {
		t.Fatalf("second drain returned %d samples", len(rest))
	}
}

// TestSpillDrainAfterEviction evicts one of two tenants sharing a bank
// while nothing drains, then drains once the eviction is done and again
// once its neighbor has finished: every sample keeps its tenant's id, the
// evicted tenant's samples are a prefix of its run and the neighbor's are
// all of its run.
func TestSpillDrainAfterEviction(t *testing.T) {
	const base = 0x5b13
	cfg := testConfig()
	cfg.Pace = time.Millisecond
	srv := mayad.New(cfg, nil)
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Admitted before Start with one spec, the two tenants share a bank.
	var want []fleet.TenantResult
	for i := 0; i < 2; i++ {
		sp := mayad.TenantSpec{
			Machine: "sys1", Defense: "gs", Workload: "blackscholes", Scale: testScale,
			Seed: base, Index: i, MaxTicks: 4000, WarmupTicks: testWarmup,
		}
		if resp, _ := admit(t, ts.URL, sp); resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d failed", i)
		}
		want = append(want, soloRun(t, sp).res)
	}
	srv.Start()
	waitRecorded(t, ts.URL, 0)
	if ok, err := srv.Evict(0); !ok || err != nil {
		t.Fatalf("evict 0: %v %v", ok, err)
	}
	waitState(t, ts.URL, 0, mayad.StateEvicted)
	samples := drainSpill(t, ts.URL)
	waitState(t, ts.URL, 1, mayad.StateDone)
	samples = append(samples, drainSpill(t, ts.URL)...)

	by := spilledBy(t, samples, 0, 1)
	if n := len(by[0]); n == 0 || n == len(want[0].DefenseSamples) {
		t.Fatalf("evicted tenant spilled %d of %d samples, want a mid-run prefix", n, len(want[0].DefenseSamples))
	}
	checkSpilledPrefix(t, by[0], want[0])
	if len(by[1]) != len(want[1].DefenseSamples) {
		t.Fatalf("finished tenant spilled %d samples, its run records %d", len(by[1]), len(want[1].DefenseSamples))
	}
	checkSpilledPrefix(t, by[1], want[1])
}

// TestBadSpecsRejected covers admission validation: unknown names 400,
// malformed JSON 400, unknown tenant 404.
func TestBadSpecsRejected(t *testing.T) {
	srv := mayad.New(testConfig(), nil)
	srv.Start()
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, sp := range []mayad.TenantSpec{
		{Machine: "sys9"},
		{Defense: "rot13"},
		{Workload: "solitaire"},
		{Faults: "gremlins"},
		{Defense: "baseline", Flight: true},
	} {
		if resp, _ := admit(t, ts.URL, sp); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %+v: status %d, want 400", sp, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/tenants", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	if code, _ := get(t, ts.URL+"/tenants/99"); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d, want 404", code)
	}
}

// TestOversizedRunsRejected covers the run-length bound: a duration past
// 1<<20 ticks, recorded or warmup, is a 400 that admits nothing and sheds
// nothing, while a run exactly at the bound is admitted. The scheduler is
// never started, so the admitted run only queues.
func TestOversizedRunsRejected(t *testing.T) {
	srv := mayad.New(testConfig(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"seconds": 1e300}`,              // overflows int when converted to ticks
		`{"max_ticks": 2000000000}`,       // ≈4 GB of period-level traces
		`{"warmup_ticks": 1099511627776}`, // holds the scheduler in warmup
	} {
		resp, err := http.Post(ts.URL+"/tenants", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if n := len(srv.List()); n != 0 {
		t.Fatalf("%d tenants admitted, want none", n)
	}
	var metrics strings.Builder
	if err := srv.Registry().WriteProm(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mayad_admission_shed_total 0", "mayad_admitted_total 0"} {
		if !strings.Contains(metrics.String(), want) {
			t.Fatalf("want %q in metrics:\n%s", want, metrics.String())
		}
	}

	resp, st := admit(t, ts.URL, mayad.TenantSpec{MaxTicks: 1 << 20, WarmupTicks: 1 << 20})
	if resp.StatusCode != http.StatusCreated || st.MaxTicks != 1<<20 {
		t.Fatalf("run at the bound: status %d, max_ticks %d", resp.StatusCode, st.MaxTicks)
	}
}
