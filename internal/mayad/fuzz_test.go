package mayad_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/maya-defense/maya/internal/mayad"
)

// FuzzAdmit posts arbitrary bodies to POST /tenants on a daemon whose
// scheduler never starts, so an admission only queues or sheds and
// nothing runs. Whatever the body, the handler must answer 201, 400 or 503 with a
// JSON body and must not panic; every admitted spec must carry a recorded
// run in (0, 1<<20] ticks and a warmup in [0, 1<<20] ticks.
func FuzzAdmit(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"seconds": 1e300}`)
	f.Add(`{"max_ticks": 2000000000}`)
	f.Add(`{"warmup_ticks": 1099511627776}`)
	f.Add(`{"seconds": 0.0001}`) // under one tick, which truncates to max_ticks 0
	f.Add(`{"machine": "sys2", "defense": "constant", "workload": "video/tractor", "scale": 0.5,
		"seed": 7, "index": 3, "seconds": 2.5, "max_ticks": 1000, "warmup_ticks": -1,
		"faults": "kitchen-sink", "flight": true}`)
	f.Fuzz(func(t *testing.T, body string) {
		srv := mayad.New(testConfig(), nil)
		req := httptest.NewRequest(http.MethodPost, "/tenants", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusCreated, http.StatusBadRequest, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for %q", rec.Code, body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("status %d: content type %q", rec.Code, ct)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d: body is not JSON: %q", rec.Code, rec.Body.String())
		}
		if rec.Code != http.StatusCreated {
			return
		}
		var st mayad.TenantStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if mt := st.Spec.MaxTicks; mt <= 0 || mt > 1<<20 {
			t.Fatalf("admitted %q with max_ticks %d", body, mt)
		}
		if wt := st.Spec.WarmupTicks; wt < 0 || wt > 1<<20 {
			t.Fatalf("admitted %q with warmup_ticks %d", body, wt)
		}
	})
}

// handlerStatuses are the statuses Handler documents: its routes' and the
// mux's own.
var handlerStatuses = []int{
	http.StatusOK, http.StatusCreated, http.StatusMovedPermanently,
	http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed,
	http.StatusConflict, http.StatusServiceUnavailable,
}

// finishedServer returns a drained daemon whose tenant 0 is done: a
// one-period Maya GS run with a flight recorder, so trace, flight and
// /traces.csv requests reach their encoders.
func finishedServer(t *testing.T) *mayad.Server {
	t.Helper()
	srv := mayad.New(testConfig(), nil)
	if _, err := srv.Admit(mayad.TenantSpec{MaxTicks: mayad.PeriodTicks, WarmupTicks: -1, Flight: true}); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	for srv.Resident() > 0 {
		time.Sleep(50 * time.Microsecond)
	}
	srv.Drain()
	if st, _ := srv.Status(0); st.State != mayad.StateDone {
		t.Fatalf("tenant 0 ended %q, want %q", st.State, mayad.StateDone)
	}
	return srv
}

// FuzzHandlers sends an arbitrary method, path and query to the handlers
// of two daemons: one whose scheduler never starts and which holds one
// admitted, queued tenant, id 0, and one whose tenant 0 has finished (see
// finishedServer). Inputs a server could not parse off the wire are
// skipped. Whatever the request, neither handler may panic, each must
// answer a status Handler documents, and every JSON body must decode.
func FuzzHandlers(f *testing.F) {
	for _, seed := range [][3]string{
		{"GET", "/spill", ""},
		{"GET", "/traces.csv", ""},
		{"GET", "/tenants/0/trace", "format=mayt"},
		{"GET", "/tenants/0/trace", "format=json"},
		{"GET", "/tenants/0/trace", "format=csv"},
		{"GET", "/tenants/0/trace", "format=bogus"},
		{"GET", "/tenants/0/flight", ""},
		{"GET", "/tenants/-1", ""},
		{"GET", "/tenants/12345678901234567890", ""},
		{"DELETE", "/tenants/0", ""},
		{"GET", "/healthz", ""},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, method, path, query string) {
		if !strings.HasPrefix(path, "/") {
			path = "/" + path
		}
		req, err := http.NewRequest(method, "http://mayad"+path, http.NoBody)
		if err != nil {
			t.Skip()
		}
		req.URL.RawQuery = query
		queued := mayad.New(testConfig(), nil)
		if _, err := queued.Admit(mayad.TenantSpec{}); err != nil {
			t.Fatal(err)
		}
		for i, srv := range []*mayad.Server{queued, finishedServer(t)} {
			daemon := [...]string{"queued", "finished"}[i]
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req.Clone(req.Context()))

			if !slices.Contains(handlerStatuses, rec.Code) {
				t.Fatalf("%s daemon, %s %s?%s: status %d", daemon, method, path, query, rec.Code)
			}
			if rec.Header().Get("Content-Type") == "application/json" && !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s daemon, %s %s?%s: status %d, body is not JSON: %q", daemon, method, path, query, rec.Code, rec.Body.String())
			}
		}
	})
}
