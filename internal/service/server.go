package service

import (
	"encoding/json"
	"errors"
	"net/http"

	"vsresil/internal/journal"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs           submit a JobSpec, returns the job status
//	GET    /v1/jobs           list all jobs
//	GET    /v1/jobs/{id}      status + progress of one job
//	GET    /v1/jobs/{id}/result   the finished job's result document
//	DELETE /v1/jobs/{id}      cancel a queued or running job
//	GET    /healthz           liveness probe
//	GET    /metrics           text counters/gauges/histograms
//
// When the daemon runs as a fabric coordinator, the cluster API
// (POST /v1/fabric/lease, /heartbeat, /results, /campaigns — see
// fabric.Coordinator.Mount) is served from the same mux and the
// fabric gauges append to /metrics.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.fabric != nil {
		s.fabric.Mount(mux)
	}
	return mux
}

// maxSpecBytes bounds a job submission body (uploaded PGM frame sets
// are the large case). The accepted spec is journaled as one record,
// so the bound is the journal's record limit: a larger body is refused
// here, and a body whose record still comes out over the limit is
// refused by the journal write, before the job exists.
const maxSpecBytes = journal.MaxRecordBytes

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err)
		return
	}
	st, err := s.Enqueue(spec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.List()})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	raw, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil && !errors.Is(err, ErrTerminal) {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.write(w, s.gauges())
	if s.fabric != nil {
		s.fabric.WriteMetrics(w)
	}
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrNotFinished):
		return http.StatusConflict
	case errors.Is(err, ErrNoResult):
		return http.StatusConflict
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, journal.ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, journal.ErrWrite):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
