package mayad

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/maya-defense/maya/internal/fleet"
)

// maxSpecBytes bounds one admission request body; a TenantSpec is a few
// hundred bytes, so anything larger is garbage or abuse.
const maxSpecBytes = 1 << 16

// retryAfterSeconds is the constant backoff hint sent with every shed
// (503) response.
const retryAfterSeconds = "1"

// Handler returns the daemon's API mux. cmd/mayad mounts it as the app
// handler of a hardened debugsrv server, which adds /metrics and pprof
// and owns the HTTP lifecycle (timeouts, graceful drain).
//
// A route answers 200, 201, 400, 404, 409 or 503, always with a JSON body
// apart from a trace or flight download. The mux itself answers an unknown
// path with 404 and another method on a known path with 405, both in
// plain text, and redirects a path that is not in clean form with 301.
// DELETE /tenants/{id} answers 200 once a queued or running tenant's
// eviction is queued; a tenant that finishes first ends done (see Evict).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /tenants", s.handleAdmit)
	mux.HandleFunc("GET /tenants", s.handleList)
	mux.HandleFunc("GET /tenants/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /tenants/{id}", s.handleEvict)
	mux.HandleFunc("GET /tenants/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /tenants/{id}/flight", s.handleFlight)
	mux.HandleFunc("GET /traces.csv", s.handleTracesCSV)
	mux.HandleFunc("GET /spill", s.handleSpill)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// shed writes the load-shedding response: 503 with a Retry-After hint.
func shed(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", retryAfterSeconds)
	writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var sp TenantSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad tenant spec: " + err.Error()})
		return
	}
	id, err := s.Admit(sp)
	var sa *shedError
	switch {
	case errors.As(err, &sa):
		shed(w, err)
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	st, _ := s.Status(id)
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

// tenantID parses the {id} path value; a -1 return means the 404 has been
// written.
func tenantID(w http.ResponseWriter, r *http.Request) int {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "bad tenant id"})
		return -1
	}
	return id
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := tenantID(w, r)
	if id < 0 {
		return
	}
	st, ok := s.Status(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no tenant %d", id)})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	id := tenantID(w, r)
	if id < 0 {
		return
	}
	ok, err := s.Evict(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no tenant %d", id)})
		return
	}
	if err != nil {
		shed(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"evicted": id})
}

// handleTrace serves one finished tenant's period trace;
// ?format=csv|json|mayt selects the encoding (default csv). The bytes
// come from the shared internal/trace writers, so a converted mayactl
// export compares equal.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := tenantID(w, r)
	if id < 0 {
		return
	}
	tn, ready, ok := s.result(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no tenant %d", id)})
		return
	}
	if !ready {
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("tenant %d has not finished", id)})
		return
	}
	d := tenantDataset(tn)
	var err error
	switch format := r.URL.Query().Get("format"); format {
	case "", "csv":
		w.Header().Set("Content-Type", "text/csv")
		err = d.WriteCSV(w)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		err = d.WriteJSON(w)
	case "mayt", "bin":
		w.Header().Set("Content-Type", "application/octet-stream")
		err = d.WriteBinary(w)
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("unknown format %q (csv, json, mayt)", format)})
		return
	}
	_ = err // headers are sent; a broken pipe mid-body is the client's problem
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	id := tenantID(w, r)
	if id < 0 {
		return
	}
	tn, ready, ok := s.result(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no tenant %d", id)})
		return
	}
	if !ready {
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("tenant %d has not finished", id)})
		return
	}
	s.mu.Lock()
	flight := tn.flight
	s.mu.Unlock()
	if len(flight) == 0 {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("tenant %d recorded no flight trace", id)})
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	_, _ = w.Write(flight)
}

// handleTracesCSV streams every finished tenant's trace as one fleet CSV,
// rows ordered by tenant Index. When the daemon holds indices 0..N-1 of
// one base seed, the bytes equal `mayactl -fleet N -csv` output exactly.
func (s *Server) handleTracesCSV(w http.ResponseWriter, _ *http.Request) {
	results, ids := s.finishedResults()
	w.Header().Set("Content-Type", "text/csv")
	_ = fleet.WriteCSV(w, results, ids)
}

func (s *Server) handleSpill(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.DrainSpill())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
