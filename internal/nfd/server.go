// The daemon's REST surface:
//
//	GET    /modules               list modules
//	POST   /modules               create (CreateRequest body)
//	GET    /modules/{id}          one module's status
//	DELETE /modules/{id}          graceful drain + delete
//	POST   /modules/{id}/packets  replay a batch (TraceSpec body);
//	                              429 when the module's guard shed
//	GET    /modules/{id}/stats    per-module VM stats snapshot
//	GET    /modules/{id}/trace    per-module flight-recorder JSONL
//	GET    /modules/{id}/estimates?flow=N | ?key=HEX
//	/metrics /trace /profile /debug/pprof  the obs plane
package nfd

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"

	"enetstl/internal/harness"
	"enetstl/internal/obs"
	"enetstl/internal/runtime"
	"enetstl/internal/telemetry"
)

// Server glues the registry to HTTP and mounts the obs plane on the
// same mux.
type Server struct {
	Registry *Registry
	Obs      *obs.Server

	mu      sync.Mutex
	httpSrv *http.Server
}

// NewServer builds a daemon server with a bare obs plane (per-module
// gatherers only — the global VM stats switch stays off, so nothing is
// retained after a module is deleted).
func NewServer() *Server {
	s := &Server{Registry: NewRegistry(), Obs: obs.NewBare()}
	s.Obs.AddGatherer(func(reg *telemetry.Registry) { s.Registry.Publish(reg) })
	return s
}

// Handler builds the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /modules", s.handleList)
	mux.HandleFunc("POST /modules", s.handleCreate)
	mux.HandleFunc("GET /modules/{id}", s.handleGet)
	mux.HandleFunc("DELETE /modules/{id}", s.handleDelete)
	mux.HandleFunc("POST /modules/{id}/packets", s.handlePackets)
	mux.HandleFunc("GET /modules/{id}/stats", s.handleStats)
	mux.HandleFunc("GET /modules/{id}/trace", s.handleModuleTrace)
	mux.HandleFunc("GET /modules/{id}/estimates", s.handleEstimates)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	s.Obs.Mount(mux)
	return mux
}

// Start serves the daemon mux (lifecycle routes + mounted obs plane)
// in the background on addr (":0" picks a free port), returning the
// bound address.
func (s *Server) Start(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.httpSrv != nil {
		return "", fmt.Errorf("nfd: server already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go s.httpSrv.Serve(ln) //nolint:errcheck // ErrServerClosed on Shutdown
	return ln.Addr().String(), nil
}

// Shutdown drains every module, then gracefully stops the listener
// (bounded by ctx). The server is restartable afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Registry.Close()
	s.mu.Lock()
	srv := s.httpSrv
	s.httpSrv = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"service": "nfd",
		"endpoints": []string{
			"GET /modules", "POST /modules", "GET /modules/{id}",
			"DELETE /modules/{id}", "POST /modules/{id}/packets",
			"GET /modules/{id}/stats", "GET /modules/{id}/trace",
			"GET /modules/{id}/estimates", "/metrics", "/trace", "/profile",
		},
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"modules": s.Registry.List()})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := decodeStrict(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	m, err := s.Registry.Create(req)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, runtime.ErrQuota) {
			// Construction-time quota breach (map memory, rpool
			// capacity): same status as datapath shedding.
			code = http.StatusTooManyRequests
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, m.Status())
}

func (s *Server) module(w http.ResponseWriter, r *http.Request) (*Module, bool) {
	id := r.PathValue("id")
	m, ok := s.Registry.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no module %q", id))
		return nil, false
	}
	return m, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if m, ok := s.module(w, r); ok {
		writeJSON(w, http.StatusOK, m.Status())
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Registry.Delete(id); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

func (s *Server) handlePackets(w http.ResponseWriter, r *http.Request) {
	m, ok := s.module(w, r)
	if !ok {
		return
	}
	var spec runtime.TraceSpec
	if err := decodeStrict(r, &spec); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := m.Ingest(spec)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	code := http.StatusOK
	if res.Shed > 0 {
		// The guard shed under this batch: the tenant is over its insn
		// budget. The body still carries the partial results — sheds are
		// graceful degradation, not failures.
		code = http.StatusTooManyRequests
	}
	writeJSON(w, code, res)
}

// statsSnapshot is the GET /modules/{id}/stats view.
type statsSnapshot struct {
	Prog      string `json:"prog"`
	RunCnt    uint64 `json:"run_cnt"`
	RunTimeNs uint64 `json:"run_time_ns"`
	Insns     uint64 `json:"insns"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	m, ok := s.module(w, r)
	if !ok {
		return
	}
	out := []statsSnapshot{}
	m.mu.Lock()
	if st := m.mergedStats(); st != nil {
		for _, name := range st.ProgNames() {
			ps, ok := st.ProgSnapshot(name)
			if !ok {
				continue
			}
			out = append(out, statsSnapshot{
				Prog: name, RunCnt: ps.RunCnt, RunTimeNs: ps.RunTimeNs, Insns: ps.Insns,
			})
		}
	}
	m.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"module": m.ID, "programs": out})
}

func (s *Server) handleModuleTrace(w http.ResponseWriter, r *http.Request) {
	m, ok := s.module(w, r)
	if !ok {
		return
	}
	limit := 10000
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	written := 0
	for written < limit {
		batch := m.DrainTrace(min(4096, limit-written))
		if len(batch) == 0 {
			break
		}
		for _, ev := range batch {
			if enc.Encode(ev) != nil {
				return // client gone
			}
			written++
		}
	}
}

func (s *Server) handleEstimates(w http.ResponseWriter, r *http.Request) {
	m, ok := s.module(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	var key []byte
	switch {
	case q.Get("key") != "":
		b, err := hex.DecodeString(q.Get("key"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad key hex: %w", err))
			return
		}
		key = b
	case q.Get("flow") != "":
		i, err := strconv.Atoi(q.Get("flow"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad flow %q", q.Get("flow")))
			return
		}
		k, ok := m.FlowKey(i)
		if !ok {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("flow %d outside seed trace", i))
			return
		}
		key = k
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("need ?flow=N or ?key=HEX"))
		return
	}
	est, ok := m.Estimate(key)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("%s has no control-plane estimator", m.Name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"module": m.ID, "key": hex.EncodeToString(key), "estimate": est,
	})
}

// BatchResponse documents the POST packets body shape for clients; the
// handler writes harness.BatchResult directly.
type BatchResponse = harness.BatchResult

func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
