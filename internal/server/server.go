package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"elmocomp"
	"elmocomp/internal/jobs"
)

// maxBodyBytes bounds the submit body (inline networks are text; the
// largest built-ins are a few hundred KiB).
const maxBodyBytes = 16 << 20

// Server is the HTTP front end over a jobs.Manager.
type Server struct {
	mgr *jobs.Manager
	mux *http.ServeMux
}

// New wires the API routes. The caller owns the manager's lifecycle
// (drain before stopping the listener so in-flight jobs finish or
// cancel cleanly).
func New(mgr *jobs.Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /varz", s.handleVarz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// handleSubmit admits a job. 202 for queued/coalesced submissions, 200
// when a cache hit births the job already done, 429 on a full queue,
// 503 while draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	var net *elmocomp.Network
	var err error
	switch {
	case req.Model != "" && req.Network != "":
		writeError(w, http.StatusBadRequest, errors.New("pass model or network, not both"))
		return
	case req.Model != "":
		net, err = elmocomp.Builtin(req.Model)
	case req.Network != "":
		net, err = elmocomp.ParseNetworkString(req.Network)
	default:
		writeError(w, http.StatusBadRequest, errors.New("pass a model name or an inline network"))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfg, err := req.Options.Config()
	if err == nil {
		// Only a request naming a partition pays a reduction here.
		err = elmocomp.CheckPartition(net, cfg)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.mgr.Submit(jobs.Request{Network: net, Config: cfg})
	switch {
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrResidentFull):
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, jobs.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := j.Status()
	code := http.StatusAccepted
	if st.State.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, statusOf(st))
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	j, err := s.mgr.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, statusOf(j.Status()))
	}
}

// handleEvents streams the job's event log as NDJSON, one jobs.Event
// per line, from the optional ?from=<seq> cursor until the job reaches
// a terminal state or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from cursor %q", v))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs, terminal, err := j.NextEvents(r.Context(), from)
		if err != nil {
			return // client went away
		}
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		from += len(evs)
	}
}

// handleResult serves the finished result: 200 with the shared
// RunSummary (plus supports when ?supports=1), 409 while the job is
// still pending, and the job's own error for failed/canceled jobs.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	res, err := j.Result()
	if err != nil {
		code := http.StatusConflict
		if j.State().Terminal() {
			code = http.StatusGone // failed or canceled: no result will appear
		}
		writeError(w, code, err)
		return
	}
	st := j.Status()
	resp := ResultResponse{
		Job:     statusOf(st),
		Summary: Summarize(j.Request().Network, res, st.Finished.Sub(st.Created)),
	}
	if v := r.URL.Query().Get("supports"); v == "1" || v == "true" {
		resp.Supports = make([][]string, res.Len())
		for i := range resp.Supports {
			resp.Supports[i] = res.SupportNames(i)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCancel trips the job's abort latch and reports the resulting
// status. Cancel is idempotent; canceling a finished job is a no-op.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if err := s.mgr.Cancel(j.ID); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, statusOf(j.Status()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.mgr.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Stats())
}
