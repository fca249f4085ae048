package main

import (
	"context"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/reldash"
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

// sloPayload is the GET /api/slo reply.
type sloPayload struct {
	// Enabled is always true: the engine always runs.
	Enabled    bool                  `json:"enabled"`
	Objectives []slo.ObjectiveStatus `json:"objectives,omitempty"`
	// Measured is the availability-objective good fraction over the
	// longest window — the number Model.Availability is compared to.
	Measured *float64 `json:"measured_availability,omitempty"`
	// Model is the latest self-model prediction; ModelError names why
	// there is none yet (warming up, sampler disabled).
	Model      *slo.Prediction `json:"model,omitempty"`
	ModelError string          `json:"model_error,omitempty"`
}

// handleSLO answers GET /api/slo: objective statuses, error budgets,
// and the modeled-vs-measured availability pair.
func (s *solveServer) handleSLO(w http.ResponseWriter, r *http.Request, ev *obs.WideEvent) (int, any) {
	payload := sloPayload{Enabled: true, Objectives: s.slo.Status()}
	for _, o := range payload.Objectives {
		if o.Kind == "availability" {
			m := o.Measured
			payload.Measured = &m
			break
		}
	}
	if p := s.selfPred.Load(); p != nil {
		if p.err != nil {
			payload.ModelError = p.err.Error()
		} else {
			pred := p.pred
			payload.Model = &pred
		}
	} else if s.cfg.SelfModelEvery <= 0 {
		payload.ModelError = "self-model sampler disabled"
	} else {
		payload.ModelError = "self-model warming up"
	}
	return http.StatusOK, payload
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

// sloView flattens the SLO state for the dashboard panel.
func (s *solveServer) sloView() *reldash.SLOView {
	view := &reldash.SLOView{}
	measuredSet := false
	for _, o := range s.slo.Status() {
		row := reldash.SLORow{
			Name:            o.Name,
			Kind:            o.Kind,
			Target:          o.Target,
			WorstBurn:       o.WorstBurn,
			BudgetRemaining: o.BudgetRemaining,
			Breaching:       o.Breaching,
			Breaches:        o.Breaches,
		}
		for _, w := range o.Windows {
			row.Windows = append(row.Windows, reldash.SLOWindow{
				Label:     w.Window,
				Burn:      w.BurnRate,
				Breaching: w.Breaching,
			})
		}
		if o.Kind == "availability" && !measuredSet {
			view.Measured = o.Measured
			measuredSet = true
		}
		view.Rows = append(view.Rows, row)
	}
	if p := s.selfPred.Load(); p != nil {
		if p.err != nil {
			view.ModeledErr = p.err.Error()
		} else {
			view.ModeledOK = true
			view.Modeled = p.pred.Availability
		}
	} else {
		view.ModeledErr = "self-model warming up"
	}
	return view
}

// profileRows flattens the profile ring for the dashboard trace pages.
func (s *solveServer) profileRows(start, end time.Time) []reldash.ProfileRow {
	if s.profiles == nil {
		return nil
	}
	var rows []reldash.ProfileRow
	for _, e := range s.profiles.Overlapping(start, end) {
		rows = append(rows, reldash.ProfileRow{
			Name:  e.Name,
			Kind:  e.Kind,
			Start: e.Start,
			Bytes: e.Bytes,
		})
	}
	return rows
}
