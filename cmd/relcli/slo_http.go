package main

import (
	"context"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/slo"
)

// selfUpStates are the self-model states counted as "up": a saturated
// server is slow but answering; only an open breaker (or worse) is an
// availability loss from the client's point of view.
var selfUpStates = []string{"ok", "saturated"}

// selfPrediction pairs a self-model solve with the error that stopped
// it, so /api/slo can surface "warming up" honestly.
type selfPrediction struct {
	pred slo.Prediction
	err  error
}

// selfState classifies the server's current condition for the
// self-model CTMC: "open" when any circuit breaker is open or probing,
// "saturated" when every solve slot is busy or requests are queued,
// "ok" otherwise.
func (s *solveServer) selfState() string {
	for _, state := range s.brk.snapshot() {
		if state != "closed" {
			return "open"
		}
	}
	if int(s.inflight.Value()) >= s.cfg.MaxInflight || s.adm.queueLen() > 0 {
		return "saturated"
	}
	return "ok"
}

// sampleSelf records one self-observation at the given time.
func (s *solveServer) sampleSelf(at time.Time) {
	s.selfModel.Step(s.selfState(), at)
}

// predictSelf solves the fitted self-CTMC and caches the outcome for
// /api/slo and the dashboard.
func (s *solveServer) predictSelf(at time.Time) {
	pred, err := s.selfModel.Predict(selfUpStates, at)
	s.selfPred.Store(&selfPrediction{pred: pred, err: err})
}

// startBackground launches the self-model sampler and the continuous-
// profiling loop when configured. Both stop through stopBackground.
func (s *solveServer) startBackground() {
	if every := s.cfg.SelfModelEvery; every > 0 {
		s.bgWG.Add(1)
		go func() {
			defer s.bgWG.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			n := 0
			for {
				select {
				case <-s.stopBg:
					return
				case t := <-tick.C:
					s.sampleSelf(t)
					// Solving the fitted chain is ~microseconds at this
					// size, but there is no point re-predicting on every
					// sample.
					if n++; n%5 == 0 {
						s.predictSelf(t)
					}
				}
			}
		}()
	}
	if s.profiles != nil {
		ctx, cancel := context.WithCancel(context.Background())
		s.bgWG.Add(2)
		go func() {
			defer s.bgWG.Done()
			<-s.stopBg
			cancel() // unblocks an in-flight CaptureCPU promptly
		}()
		go func() {
			defer s.bgWG.Done()
			tick := time.NewTicker(profileEvery)
			defer tick.Stop()
			for {
				select {
				case <-s.stopBg:
					return
				case <-tick.C:
					if _, err := s.profiles.CaptureHeap(); err != nil && s.cfg.Logger != nil {
						s.cfg.Logger.Warn("heap profile capture failed", "err", err)
					}
					// CPU captures block for their duration; a quarter of
					// the cadence keeps the loop from falling behind.
					if _, err := s.profiles.CaptureCPU(ctx, profileEvery/4); err != nil && s.cfg.Logger != nil {
						s.cfg.Logger.Warn("cpu profile capture failed", "err", err)
					}
				}
			}
		}()
	}
}

// stopBackground stops the samplers and waits them out. Safe to call
// once; the server is not restartable afterwards.
func (s *solveServer) stopBackground() {
	close(s.stopBg)
	s.bgWG.Wait()
}

// sloReport assembles the objective statuses and the modeled-vs-measured
// availability pair: the GET /api/slo reply and the dashboard SLO panel.
func (s *solveServer) sloReport() *slo.Report {
	rep := &slo.Report{Enabled: true, Objectives: s.slo.Status()}
	for _, o := range rep.Objectives {
		if o.Kind == "availability" {
			m := o.Measured
			rep.Measured = &m
			break
		}
	}
	if p := s.selfPred.Load(); p != nil {
		if p.err != nil {
			rep.ModelError = p.err.Error()
		} else {
			pred := p.pred
			rep.Model = &pred
		}
	} else if s.cfg.SelfModelEvery <= 0 {
		rep.ModelError = "self-model sampler disabled"
	} else {
		rep.ModelError = "self-model warming up"
	}
	return rep
}

// handleSLO answers GET /api/slo: objective statuses, error budgets,
// and the modeled-vs-measured availability pair.
func (s *solveServer) handleSLO(w http.ResponseWriter, r *http.Request, ev *obs.WideEvent) (int, any) {
	return http.StatusOK, s.sloReport()
}

// profilesPayload is the GET /api/profiles reply.
type profilesPayload struct {
	Enabled  bool               `json:"enabled"`
	Dir      string             `json:"dir,omitempty"`
	Profiles []obs.ProfileEntry `json:"profiles"`
}

// handleProfiles answers GET /api/profiles: the continuous-profiling
// ring listing, newest first.
func (s *solveServer) handleProfiles(w http.ResponseWriter, r *http.Request, ev *obs.WideEvent) (int, any) {
	payload := profilesPayload{Profiles: []obs.ProfileEntry{}}
	if s.profiles != nil {
		payload.Enabled = true
		payload.Dir = s.profiles.Dir()
		payload.Profiles = s.profiles.List()
	}
	return http.StatusOK, payload
}
