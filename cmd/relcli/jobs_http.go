package main

import (
	"errors"
	"net/http"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// jobResponse is the reply document for the /jobs routes. Error/Code
// follow the same taxonomy as solveResponse (draining, too-large,
// bad-spec, unknown-job, terminal, internal).
type jobResponse struct {
	Job   *jobs.Snapshot   `json:"job,omitempty"`
	Jobs  []*jobs.Snapshot `json:"jobs,omitempty"`
	Error string           `json:"error,omitempty"`
	Code  string           `json:"code,omitempty"`
}

// handleJobSubmit accepts a sweep job document on POST /jobs. A request
// carrying an Idempotency-Key header it has seen before gets the
// existing job back with 200 instead of a duplicate with 201, so clients
// can blindly re-post after a lost response.
func (s *solveServer) handleJobSubmit(w http.ResponseWriter, r *http.Request, ev *obs.WideEvent) (int, any) {
	if s.draining.Load() {
		s.shed.Inc("draining")
		w.Header().Set("Retry-After", "1")
		return http.StatusServiceUnavailable, jobResponse{Error: "server is draining for shutdown", Code: "draining"}
	}
	body, msg, code := s.readBody(w, r, "job")
	if code != "" {
		return http.StatusBadRequest, jobResponse{Error: msg, Code: code}
	}
	spec, err := jobs.ParseSpec(body)
	if err != nil {
		return http.StatusBadRequest, jobResponse{Error: err.Error(), Code: "bad-spec"}
	}
	spec.Corr = ev.Corr
	snap, created, err := s.jobs.Submit(spec, r.Header.Get("Idempotency-Key"))
	if err != nil {
		return jobError(err)
	}
	w.Header().Set("Location", "/jobs/"+snap.ID)
	if !created {
		return http.StatusOK, jobResponse{Job: snap}
	}
	return http.StatusCreated, jobResponse{Job: snap}
}

// handleJobGet answers GET /jobs/{id} with the job's live snapshot —
// progress while running, the folded result once done.
func (s *solveServer) handleJobGet(w http.ResponseWriter, r *http.Request, ev *obs.WideEvent) (int, any) {
	snap, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		return jobError(err)
	}
	return http.StatusOK, jobResponse{Job: snap}
}

// handleJobList answers GET /jobs with every known job, including
// terminal history replayed from the checkpoint directory.
func (s *solveServer) handleJobList(w http.ResponseWriter, r *http.Request, ev *obs.WideEvent) (int, any) {
	list := s.jobs.List()
	if list == nil {
		list = []*jobs.Snapshot{}
	}
	return http.StatusOK, jobResponse{Jobs: list}
}

// handleJobCancel stops a running job on DELETE /jobs/{id} and returns
// its terminal snapshot. Canceling an already-terminal job is a 409 so
// retried deletes are distinguishable from races.
func (s *solveServer) handleJobCancel(w http.ResponseWriter, r *http.Request, ev *obs.WideEvent) (int, any) {
	snap, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		return jobError(err)
	}
	return http.StatusOK, jobResponse{Job: snap}
}

// jobError maps the engine's typed sentinels onto HTTP and the
// machine-readable code taxonomy.
func jobError(err error) (int, any) {
	status, code := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, jobs.ErrBadSpec):
		status, code = http.StatusBadRequest, "bad-spec"
	case errors.Is(err, jobs.ErrUnknownJob):
		status, code = http.StatusNotFound, "unknown-job"
	case errors.Is(err, jobs.ErrDraining):
		status, code = http.StatusServiceUnavailable, "draining"
	case errors.Is(err, jobs.ErrTerminal):
		status, code = http.StatusConflict, "terminal"
	}
	return status, jobResponse{Error: err.Error(), Code: code}
}

// jobsHealth summarizes the engine for /healthz.
func (s *solveServer) jobsHealth() healthzJobs {
	h := healthzJobs{Resumed: s.jobsResumed}
	for _, j := range s.jobs.List() {
		h.Known++
		if j.State == jobs.StateRunning {
			h.Active++
		}
	}
	return h
}
