package mayad_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
