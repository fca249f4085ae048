package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/modelio"
	"repro/internal/obs"
)

// tracedRun measures the per-layer metrics. Layer numbers come from two
// sources: the server's own /metrics and Go memstats scraped around short
// load windows, and spans the benchmark records around public calls into
// each layer, replayed in process. The layer inputs are the same for
// every workload; trace.overhead_pct replays this workload's own inputs
// with and without spans.
func tracedRun(cfg config, dir, workload string, res *runResult) ([]spanRec, error) {
	w := cfg.window
	fx, err := loadFixtures(cfg.root)
	if err != nil {
		return nil, err
	}
	tpls := largeTemplates(cfg.seed)
	model, exact, err := sweepModel(cfg.root)
	if err != nil {
		return nil, err
	}
	relcli, err := buildRelcli(cfg.root, cfg.bin)
	if err != nil {
		return nil, err
	}
	if err := serverLayers(cfg, relcli, dir, fx, tpls, model, exact, res); err != nil {
		return nil, err
	}
	tr := newTracer()
	layerMS, err := largeLayers(tr, tpls, cfg.seed, w/5, res)
	if err != nil {
		return nil, err
	}
	if err := fanoutLayers(tr, fx, w/10, res); err != nil {
		return nil, err
	}
	if err := jobLayers(tr, model, dir, cfg.seed, w/20, res); err != nil {
		return nil, err
	}
	experimentLayers(w/10, res)
	over, err := traceOverhead(tr, workload, cfg, fx, tpls, model, w*3/20, res)
	if err != nil {
		return nil, err
	}
	res.set("trace.overhead_pct", over, "%")
	res.set("serve.large.layer_coverage_pct", layerMS/res.Metrics["serve.large.server_ms"].Value*100, "%")
	return tr.spans, nil
}

// serverLayers boots one server and scrapes it around a serve-fixtures
// window, a serve-large window, and one sweep job.
func serverLayers(cfg config, relcli, dir string, fx []fixture, tpls []*template, model []byte, exact float64, res *runResult) error {
	s, err := startServer(relcli, dir, "-jobs-dir", filepath.Join(dir, "jobs"))
	if err != nil {
		return err
	}
	defer s.stop()
	c := newClient(loadClients)
	for _, f := range fx {
		if status, body, err := post(c, s.base+"/solve", f.doc); err != nil || status != 200 {
			return fmt.Errorf("warm-up %s: %v", f.name, statusErr(&reply{status: status, body: body, err: err}))
		}
	}
	for _, t := range tpls {
		if status, body, err := post(c, s.base+"/solve", t.doc); err != nil || status != 200 {
			return fmt.Errorf("warm-up %s: %v", t.name, statusErr(&reply{status: status, body: body, err: err}))
		}
	}
	check := func(r *reply) {
		if r.err != nil || r.status != 200 {
			res.fail("%v", statusErr(r))
		}
	}
	window := func(prefix string, d time.Duration, ndocs int, body func(cl, seq int) []byte) error {
		before, err := s.scrape(c)
		if err != nil {
			return err
		}
		w, err := serveWindow(s, c, d, ndocs, body, check)
		if err != nil {
			return err
		}
		after, err := s.scrape(c)
		if err != nil {
			return err
		}
		res.Attempted += int64(len(w.ops))
		var clientMS []float64
		for _, o := range w.ops {
			clientMS = append(clientMS, float64(o.lat.Nanoseconds())/1e6)
		}
		delta := func(name, match string) float64 {
			return promSum(after.prom, name, match) - promSum(before.prom, name, match)
		}
		n := delta("relscope_http_request_seconds_count", `route="/solve"`)
		if n <= 0 {
			return fmt.Errorf("%s: the server counted no /solve requests", prefix)
		}
		server := delta("relscope_http_request_seconds_sum", `route="/solve"`) / n * 1000
		solver := delta("relscope_solver_wall_seconds_sum", "") / n * 1000
		res.set(prefix+".server_ms", server, "ms")
		res.set(prefix+".solver_ms", solver, "ms")
		res.set(prefix+".path_ms", server-solver, "ms")
		res.set(prefix+".http_ms", mean(clientMS)-server, "ms")
		res.set(prefix+".allocs_per_op", float64(after.mallocs-before.mallocs)/n, "count")
		res.set(prefix+".bytes_per_op", float64(after.bytes-before.bytes)/n, "B")
		res.set(prefix+".gc_per_kop", float64(after.numGC-before.numGC)/n*1000, "count")
		return nil
	}
	if err := window("serve.fixtures", cfg.window*3/20, len(fx), func(cl, seq int) []byte { return fx[(cl+seq)%len(fx)].doc }); err != nil {
		return err
	}
	lcs := newLargeClients(tpls, cfg.seed, loadClients)
	if err := window("serve.large", cfg.window/5, len(tpls), func(cl, seq int) []byte { return lcs[cl].next(tpls, cl, seq) }); err != nil {
		return err
	}

	before, err := s.scrape(c)
	if err != nil {
		return err
	}
	snap, err := runJob(c, s.base, sweepSpec(model, cfg.jobSamples/2, uint64(cfg.seed)), pollEvery)
	if err == nil {
		err = sweepCheck(snap, exact)
	}
	res.Attempted++
	if err != nil {
		res.fail("sweep job: %v", err)
		return nil
	}
	after, err := s.scrape(c)
	if err != nil {
		return err
	}
	n := promSum(after.prom, "reljob_checkpoint_seconds_count", "") - promSum(before.prom, "reljob_checkpoint_seconds_count", "")
	sum := promSum(after.prom, "reljob_checkpoint_seconds_sum", "") - promSum(before.prom, "reljob_checkpoint_seconds_sum", "")
	if n <= 0 {
		return fmt.Errorf("the sweep job wrote no checkpoints")
	}
	res.set("jobs.checkpoint_ms", sum/n*1000, "ms")
	return nil
}

// largeLayers replays serve-large requests through each layer's public
// API for about d, re-solving every 64th (and each template's first)
// request in process to check the layered answer. It returns the mean
// time per request the layers account for, in ms.
func largeLayers(tr *tracer, tpls []*template, seed int64, d time.Duration, res *runResult) (float64, error) {
	lc := newLargeClients(tpls, seed+1, 1)[0]
	var st layerStats
	start := time.Now()
	first := len(tr.spans)
	reqs := 0
	for ; reqs < len(tpls) || reqs%len(tpls) != 0 || time.Since(start) < d; reqs++ {
		doc := lc.next(tpls, 0, reqs)
		got, err := layeredRequest(tr, doc, reqs+1, &st)
		res.Attempted++
		if err != nil {
			res.fail("layered %s: %v", tpls[reqs%len(tpls)].name, err)
			continue
		}
		if reqs < len(tpls) || reqs%verifyEvery == 0 {
			want, err := reference(doc)
			if err == nil {
				err = sameResults(want, got)
			}
			if err != nil {
				res.fail("layered %s: %v", tpls[reqs%len(tpls)].name, err)
			}
		}
	}
	self := selfTimes(tr.spans[first:])
	var layer time.Duration
	for _, name := range requestLayers {
		res.set(name+".us", self[name].meanUS(), "us")
		if lt := self[name]; lt != nil {
			layer += lt.self
		}
	}
	res.set("linalg.sor.iters", float64(st.sorIters)/float64(st.sorSolves), "count")
	res.set("bdd.nodes", float64(st.bddNodes), "count")
	res.set("serve.encode.bytes", float64(st.encodedBytes)/float64(st.encodes), "B")

	// Allocation counts, outside the timed replay: ReadMemStats stops
	// the world, so it never runs between spans.
	specs := make([]*modelio.Spec, len(tpls))
	var parseAllocs, buildAllocs float64
	ctmcs := 0
	for i, t := range tpls {
		parseAllocs += allocsPer(2, func() { specs[i], _ = modelio.Parse(bytes.NewReader(t.doc)) })
		if specs[i] == nil {
			return 0, fmt.Errorf("%s: template does not parse", t.name)
		}
		if cs := specs[i].CTMC; cs != nil {
			ctmcs++
			buildAllocs += allocsPer(2, func() { _, _, _ = buildChain(cs) })
		}
	}
	res.set("modelio.parse.allocs", parseAllocs/float64(len(tpls)), "count")
	res.set("markov.build.allocs", buildAllocs/float64(ctmcs), "count")
	return float64(layer.Nanoseconds()) / 1e6 / float64(reqs), nil
}

// fanoutLayers times the served solve (metrics bridge, span trace, trace
// store) against the same solve with no recorder, per fixture document,
// and reports the structural-analysis lumping hit ratio over the
// lump-eligible fixtures.
func fanoutLayers(tr *tracer, fx []fixture, d time.Duration, res *runResult) error {
	ss := newServedSolve()
	specs := make([]*modelio.Spec, len(fx))
	for i, f := range fx {
		var err error
		if specs[i], err = modelio.Parse(bytes.NewReader(f.doc)); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
	}
	solveNs := make([][]float64, len(fx))
	nopNs := make([][]float64, len(fx))
	storeNs := make([][]float64, len(fx))
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < d; round++ {
		for i, spec := range specs {
			req := round*len(specs) + i + 1
			sp := tr.begin("modelio.solve", 0, req)
			t0 := time.Now()
			got, trc, err := ss.solve(spec)
			t1 := time.Now()
			tr.end(sp)
			sp = tr.begin("obs.store", 0, req)
			ss.put(spec, trc)
			t2 := time.Now()
			tr.end(sp)
			sp = tr.begin("modelio.solve_nop", 0, req)
			_, errNop := nopSolve(spec)
			t3 := time.Now()
			tr.end(sp)
			res.Attempted++
			if err == nil {
				err = errNop
			}
			if err == nil && round == 0 {
				var want []modelio.Result
				if want, err = modelio.Solve(spec); err == nil {
					err = sameResults(want, got)
				}
			}
			if err != nil {
				res.fail("%s: %v", fx[i].name, err)
			}
			solveNs[i] = append(solveNs[i], float64(t1.Sub(t0).Nanoseconds()))
			storeNs[i] = append(storeNs[i], float64(t2.Sub(t1).Nanoseconds()))
			nopNs[i] = append(nopNs[i], float64(t3.Sub(t2).Nanoseconds()))
		}
	}
	// Per document medians, then the mean over documents: a fixture
	// request picks each document equally often.
	var solve, nop, store, fanAllocs float64
	for i, spec := range specs {
		solve += median(solveNs[i])
		nop += median(nopNs[i])
		store += median(storeNs[i])
		fanAllocs += allocsPer(5, func() { _, _, _ = ss.solve(spec) }) - allocsPer(5, func() { _, _ = nopSolve(spec) })
	}
	n := float64(len(specs))
	res.set("modelio.solve.us", solve/n/1e3, "us")
	res.set("modelio.solve_nop.us", nop/n/1e3, "us")
	res.set("obs.fanout.us", (solve-nop)/n/1e3, "us")
	res.set("obs.fanout.allocs", fanAllocs/n, "count")
	res.set("obs.store.us", store/n/1e3, "us")

	attempted, lumped := 0, 0
	for _, spec := range specs {
		if spec.CTMC == nil || !lumpEligible(spec.CTMC) {
			continue
		}
		rep, err := modelio.StructReport(spec.CTMC)
		if err != nil {
			return err
		}
		attempted++
		if rep.Lumping.Lumpable {
			lumped++
		}
	}
	res.set("relstruct.lump_hit_ratio", float64(lumped)/float64(attempted), "ratio")
	return nil
}

// lumpEligible mirrors the solve path's rule for running the automatic
// lumping pre-pass: not opted out, and only set-level measures.
func lumpEligible(cs *modelio.CTMCSpec) bool {
	if cs.Lump != "" && cs.Lump != "auto" || len(cs.Measures) == 0 {
		return false
	}
	for _, m := range cs.Measures {
		if m != "availability" && m != "mtta" {
			return false
		}
	}
	return true
}

// jobLayers times one sweep sample evaluation and the write-ahead log's
// share of an in-process job.
func jobLayers(tr *tracer, model []byte, dir string, seed int64, d time.Duration, res *runResult) error {
	js, err := newJobSampler(model, seed)
	if err != nil {
		return err
	}
	first := len(tr.spans)
	start := time.Now()
	for i := 0; i < 100 || time.Since(start) < d; i++ {
		sp := tr.begin("jobs.sample", 0, i+1)
		_, err := js.sample()
		tr.end(sp)
		res.Attempted++
		if err != nil {
			res.fail("jobs.sample: %v", err)
		}
	}
	res.set("jobs.sample.us", selfTimes(tr.spans[first:])["jobs.sample"].meanUS(), "us")
	res.set("jobs.sample.allocs", allocsPer(50, func() { _, _ = js.sample() }), "count")

	durable, err := jobs.New(jobs.Config{Dir: filepath.Join(dir, "wal-probe"), Workers: 4, Registry: metrics.NewRegistry()})
	if err != nil {
		return err
	}
	defer durable.Close(context.Background())
	memory, err := jobs.New(jobs.Config{Workers: 4, Registry: metrics.NewRegistry()})
	if err != nil {
		return err
	}
	defer memory.Close(context.Background())
	var withWAL, without []float64
	var results [2][]byte
	for round := 0; round < 3; round++ {
		for k, eng := range []*jobs.Engine{durable, memory} {
			spec, err := jobs.ParseSpec(sweepSpec(model, 10000, uint64(seed)))
			if err != nil {
				return err
			}
			t0 := time.Now()
			snap, _, err := eng.Submit(spec, "")
			if err == nil {
				snap, err = eng.Wait(context.Background(), snap.ID)
			}
			el := float64(time.Since(t0).Nanoseconds())
			res.Attempted++
			if err != nil || snap.State != jobs.StateDone {
				res.fail("in-process job: %v", err)
				continue
			}
			if k == 0 {
				withWAL = append(withWAL, el)
			} else {
				without = append(without, el)
			}
			results[k], _ = json.Marshal(snap.Result)
		}
	}
	if !bytes.Equal(results[0], results[1]) {
		res.fail("in-process job: durable and in-memory engines disagree")
	}
	if len(withWAL) > 0 && len(without) > 0 {
		res.set("jobs.wal_overhead_pct", (median(withWAL)/median(without)-1)*100, "%")
	}
	return nil
}

// experimentLayers times each experiment over at least one complete
// suite pass (more while d lasts) and counts its allocations.
func experimentLayers(d time.Duration, res *runResult) {
	exps, err := suiteExperiments(nil)
	if err != nil {
		res.fail("experiments: %v", err)
		return
	}
	walls := map[string][]float64{}
	allocs := map[string]float64{}
	passes := 0
	start := time.Now()
	for passes == 0 || time.Since(start) < d {
		passes++
		for _, e := range exps {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			suitePass([]core.Experiment{e}, res, func(id string, w time.Duration) {
				walls[id] = append(walls[id], float64(w.Nanoseconds())/1e6)
			})
			runtime.ReadMemStats(&b)
			allocs[e.ID] += float64(b.Mallocs - a.Mallocs)
		}
	}
	for _, e := range exps {
		res.set("experiments."+e.ID+".ms", median(walls[e.ID]), "ms")
		res.set("experiments."+e.ID+".allocs", allocs[e.ID]/float64(passes), "count")
	}
}

// traceOverhead replays this workload's own inputs in process, in the
// handler's order, alternately with spans recorded into tr and with
// tracing off, and returns how much longer the traced replay took.
func traceOverhead(tr *tracer, workload string, cfg config, fx []fixture, tpls []*template, model []byte, d time.Duration, res *runResult) (float64, error) {
	check := func(what string, err error) {
		res.Attempted++
		if err != nil {
			res.fail("replay %s: %v", what, err)
		}
	}
	var unit func(t *tracer)
	switch workload {
	case "serve-fixtures":
		ss := newServedSolve()
		unit = func(t *tracer) {
			for i, f := range fx {
				_, err := handlerRequest(t, ss, f.doc, i+1)
				check(f.name, err)
			}
		}
	case "serve-large":
		ss := newServedSolve()
		lc := newLargeClients(tpls, cfg.seed+2, 1)[0]
		unit = func(t *tracer) {
			for i, tpl := range tpls {
				_, err := handlerRequest(t, ss, lc.next(tpls, 0, i), i+1)
				check(tpl.name, err)
			}
		}
	case "sweep":
		js, err := newJobSampler(model, cfg.seed)
		if err != nil {
			return 0, err
		}
		unit = func(t *tracer) {
			for i := 0; i < 200; i++ {
				sp := t.begin("jobs.sample", 0, i+1)
				_, err := js.sample()
				t.end(sp)
				check("jobs.sample", err)
			}
		}
	case "suite":
		exps, err := suiteExperiments(cfg.suiteIDs)
		if err != nil {
			return 0, err
		}
		unit = func(t *tracer) {
			for i, e := range exps {
				sp := t.begin("experiments."+e.ID, 0, i+1)
				tbl, err := e.Run(obs.Nop())
				t.end(sp)
				if err == nil && (tbl == nil || len(tbl.Rows) == 0) {
					err = fmt.Errorf("empty table")
				}
				check(e.ID, err)
			}
		}
	}
	off := &tracer{}
	var traced, untraced []float64
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < d; round++ {
		for _, t := range []*tracer{tr, off} {
			t0 := time.Now()
			unit(t)
			el := float64(time.Since(t0).Nanoseconds())
			if t == off {
				untraced = append(untraced, el)
			} else {
				traced = append(traced, el)
			}
		}
	}
	return (median(traced)/median(untraced) - 1) * 100, nil
}
