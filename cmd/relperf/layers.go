package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dist"
	"repro/internal/faulttree"
	"repro/internal/linalg"
	"repro/internal/markov"
	"repro/internal/metrics"
	"repro/internal/modelio"
	"repro/internal/obs"
)

// serveTimeout mirrors relcli serve's default per-solve deadline, so the
// in-process solves carry the same context plumbing as served ones.
const serveTimeout = 30 * time.Second

// requestLayers are the span names whose self times the layered replay
// attributes to the solve path of a serve-large request.
var requestLayers = []string{
	"modelio.parse", "markov.build", "relstruct.analyze",
	"linalg.sor", "linalg.gth", "markov.transient",
	"faulttree.compile", "faulttree.top", "serve.encode",
}

// layerStats are the counts the layered replay collects besides times.
type layerStats struct {
	sorIters, sorSolves int
	bddNodes            int
	encodedBytes        int
	encodes             int
}

// layeredRequest replays one serve-large request with every layer called
// through its own public API, in the order the handler reaches them:
// parse, build, structural analysis, solver kernel, reply encode. It
// returns the results it would reply with.
func layeredRequest(tr *tracer, doc []byte, req int, st *layerStats) ([]modelio.Result, error) {
	root := tr.begin("request", 0, req)
	defer tr.end(root)
	sp := tr.begin("modelio.parse", root, req)
	spec, err := modelio.Parse(bytes.NewReader(doc))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var results []modelio.Result
	switch spec.Type {
	case "ctmc":
		results, err = layeredCTMC(tr, root, req, spec.CTMC, st)
	case "faulttree":
		results, err = layeredFaultTree(tr, root, req, spec.FaultTree, st)
	default:
		err = fmt.Errorf("layered replay has no %s path", spec.Type)
	}
	if err != nil {
		return nil, err
	}
	sp = tr.begin("serve.encode", root, req)
	out, err := encodeReply(spec.Name, results)
	tr.end(sp)
	st.encodedBytes += len(out)
	st.encodes++
	return results, err
}

// encodeReply renders results the way the server does: indented JSON.
func encodeReply(model string, results []modelio.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(struct {
		Model   string           `json:"model,omitempty"`
		Results []modelio.Result `json:"results,omitempty"`
	}{model, results})
	return buf.Bytes(), err
}

func layeredCTMC(tr *tracer, root, req int, cs *modelio.CTMCSpec, st *layerStats) ([]modelio.Result, error) {
	if len(cs.Measures) != 1 {
		return nil, fmt.Errorf("layered replay expects one measure, got %v", cs.Measures)
	}
	sp := tr.begin("markov.build", root, req)
	c, q, err := buildChain(cs)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	switch m := cs.Measures[0]; m {
	case "availability":
		sp = tr.begin("relstruct.analyze", root, req)
		rep, err := modelio.StructReport(cs)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if rep.Lumping.Lumpable {
			return nil, fmt.Errorf("layered replay does not lump; the document lumps %d states to %d", rep.States, rep.Lumping.Blocks)
		}
		sp = tr.begin("linalg.sor", root, req)
		pi, iters, err := linalg.SORSteadyState(q, linalg.SOROptions{Tol: cs.SolverTol, MaxIter: cs.SolverMaxIter, Omega: cs.SolverOmega})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		st.sorIters += iters
		st.sorSolves++
		v, err := c.ProbSum(pi, cs.UpStates...)
		return []modelio.Result{{Measure: m, Value: v}}, err
	case "steadystate":
		sp = tr.begin("linalg.gth", root, req)
		pi, err := linalg.GTHCSR(q)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		return []modelio.Result{{Measure: m, Detail: byName(c.StateNames(), pi)}}, nil
	case "transient":
		sp = tr.begin("markov.transient", root, req)
		p0, err := c.InitialAt(cs.Initial)
		var p []float64
		if err == nil {
			p, err = c.Transient(cs.Time, p0, markov.TransientOptions{})
		}
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		return []modelio.Result{{Measure: m, Detail: byName(c.StateNames(), p)}}, nil
	default:
		return nil, fmt.Errorf("layered replay has no %q path", m)
	}
}

// buildChain builds the chain and its generator as the solve path does.
func buildChain(cs *modelio.CTMCSpec) (*markov.CTMC, *linalg.CSR, error) {
	c := markov.NewCTMC()
	for _, t := range cs.Transitions {
		if err := c.AddRate(t.From, t.To, t.Rate); err != nil {
			return nil, nil, err
		}
	}
	q, err := c.Generator()
	return c, q, err
}

func byName(names []string, p []float64) map[string]float64 {
	out := make(map[string]float64, len(p))
	for i, n := range names {
		out[n] = p[i]
	}
	return out
}

func layeredFaultTree(tr *tracer, root, req int, fs *modelio.FaultTreeSpec, st *layerStats) ([]modelio.Result, error) {
	sp := tr.begin("faulttree.compile", root, req)
	events := make(map[string]*faulttree.Event, len(fs.Events))
	for _, e := range fs.Events {
		events[e.Name] = &faulttree.Event{Name: e.Name, Prob: e.Prob}
	}
	node, err := gateNode(fs.Top, events)
	var tree *faulttree.Tree
	if err == nil {
		tree, err = faulttree.New(node)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	st.bddNodes = tree.BDDSize()
	sp = tr.begin("faulttree.top", root, req)
	v, err := tree.TopStatic()
	tr.end(sp)
	return []modelio.Result{{Measure: "top", Value: v}}, err
}

// gateNode builds the faulttree node for a gate spec.
func gateNode(g *modelio.GateSpec, events map[string]*faulttree.Event) (*faulttree.Node, error) {
	if g.Event != "" {
		e, ok := events[g.Event]
		if !ok {
			return nil, fmt.Errorf("unknown event %q", g.Event)
		}
		return faulttree.Basic(e), nil
	}
	kids := make([]*faulttree.Node, len(g.Children))
	for i, c := range g.Children {
		n, err := gateNode(c, events)
		if err != nil {
			return nil, err
		}
		kids[i] = n
	}
	switch g.Op {
	case "and":
		return faulttree.And(kids...), nil
	case "or":
		return faulttree.Or(kids...), nil
	case "atleast":
		return faulttree.AtLeast(g.K, kids...), nil
	}
	return nil, fmt.Errorf("layered replay has no %q gate", g.Op)
}

// servedSolve is the solve call as the server makes it: the metrics
// bridge and a span-tree trace fanned out through obs.Multi, the trace
// then condensed and put in a trace store. nop makes the same solve with
// no recorder, so the difference is the telemetry fan-out.
type servedSolve struct {
	reg   *metrics.Registry
	store *obs.TraceStore
}

func newServedSolve() *servedSolve {
	return &servedSolve{reg: metrics.NewRegistry(), store: obs.NewTraceStore(256)}
}

func (s *servedSolve) solve(spec *modelio.Spec) ([]modelio.Result, *obs.Trace, error) {
	trc := obs.NewTrace(spec.Name)
	res, err := modelio.SolveWithOptions(spec, modelio.SolveOptions{
		Recorder: obs.Multi(obs.NewMetricsRecorder(s.reg, spec.Name), trc),
		Context:  context.Background(),
		Timeout:  serveTimeout,
	})
	return res, trc, err
}

func (s *servedSolve) put(spec *modelio.Spec, trc *obs.Trace) {
	rec := obs.RecordFromTrace(trc, spec.Name, "solve")
	rec.Start = time.Now()
	rec.Outcome = "ok"
	s.store.Put(rec)
}

func nopSolve(spec *modelio.Spec) ([]modelio.Result, error) {
	return modelio.SolveWithOptions(spec, modelio.SolveOptions{Context: context.Background(), Timeout: serveTimeout})
}

// handlerRequest replays one request in the handler's order through the
// same public calls: parse, served solve, trace-store put, encode.
func handlerRequest(tr *tracer, s *servedSolve, doc []byte, req int) ([]modelio.Result, error) {
	root := tr.begin("request", 0, req)
	defer tr.end(root)
	sp := tr.begin("modelio.parse", root, req)
	spec, err := modelio.Parse(bytes.NewReader(doc))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("modelio.solve", root, req)
	res, trc, err := s.solve(spec)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("obs.store", root, req)
	s.put(spec, trc)
	tr.end(sp)
	sp = tr.begin("serve.encode", root, req)
	_, err = encodeReply(spec.Name, res)
	tr.end(sp)
	return res, err
}

// jobSampler evaluates sweep samples exactly as the job engine's model
// does: clone the transitions, scale the swept rate, and solve the
// single measure through modelio.SolveWithOptions.
type jobSampler struct {
	base *modelio.Spec
	idxs []int
	d    dist.Distribution
	rng  *rand.Rand
}

func newJobSampler(model []byte, seed int64) (*jobSampler, error) {
	var doc modelio.Spec
	if err := json.Unmarshal(model, &doc); err != nil {
		return nil, err
	}
	d, err := dist.NewLognormal(0, 0.25)
	if err != nil {
		return nil, err
	}
	js := &jobSampler{base: &doc, d: d, rng: rand.New(rand.NewSource(seed))}
	for i, t := range doc.CTMC.Transitions {
		if t.From == "0down" && t.To == "1down" {
			js.idxs = append(js.idxs, i)
		}
	}
	return js, nil
}

func (js *jobSampler) sample() (float64, error) {
	base := js.base.CTMC
	clone := *base
	clone.Transitions = append([]modelio.CTMCTransition(nil), base.Transitions...)
	clone.Measures = []string{"availability"}
	x := js.d.Rand(js.rng)
	for _, j := range js.idxs {
		clone.Transitions[j].Rate = base.Transitions[j].Rate * x
	}
	res, err := modelio.SolveWithOptions(&modelio.Spec{Type: "ctmc", Name: js.base.Name, CTMC: &clone},
		modelio.SolveOptions{Context: context.Background()})
	if err != nil {
		return 0, err
	}
	if len(res) != 1 || !(res[0].Value > 0 && res[0].Value <= 1) {
		return 0, fmt.Errorf("sweep sample solved to %v", res)
	}
	return res[0].Value, nil
}
