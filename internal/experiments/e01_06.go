package experiments

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faulttree"
	"repro/internal/hier"
	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/rbd"
	"repro/internal/spn"
)

// seriesOfParallelPairs builds an RBD of n components arranged as n/2
// parallel pairs in series — the canonical structured system that
// non-state-space methods solve in linear time.
func seriesOfParallelPairs(n int, lam, mu float64) (*rbd.Model, error) {
	if n%2 != 0 {
		n++
	}
	life, err := dist.NewExponential(lam)
	if err != nil {
		return nil, err
	}
	repair, err := dist.NewExponential(mu)
	if err != nil {
		return nil, err
	}
	blocks := make([]*rbd.Block, 0, n/2)
	for i := 0; i < n/2; i++ {
		a := &rbd.Component{
			Name:     "a" + strconv.Itoa(i),
			Lifetime: life,
			Repair:   repair,
		}
		b := &rbd.Component{
			Name:     "b" + strconv.Itoa(i),
			Lifetime: life,
			Repair:   repair,
		}
		blocks = append(blocks, rbd.Parallel(rbd.Comp(a), rbd.Comp(b)))
	}
	return rbd.New(rbd.Series(blocks...))
}

// E1RBDScaling sweeps the component count and reports availability, BDD
// size, and solve time. Expected shape: time and size grow linearly with n
// while a 2^n-state Markov model would be hopeless beyond ~20 components.
func E1RBDScaling(rec obs.Recorder) (*core.Table, error) {
	t := &core.Table{
		ID:      "E1",
		Title:   "Series-of-parallel-pairs RBD: availability and cost vs component count",
		Columns: []string{"components", "bdd_nodes", "availability", "mttf", "solve_ms"},
		Notes:   "near-linear growth in BDD size and time; the independence assumption is what buys this",
	}
	lam, mu := 1e-3, 0.1
	for _, n := range []int{10, 50, 100, 200, 400} {
		sp := rec.Span("n="+itoa(n), obs.S("solver", "bdd"))
		m, err := seriesOfParallelPairs(n, lam, mu)
		if err != nil {
			return nil, err
		}
		var avail, mttf float64
		dur, err := timed(func() error {
			var err error
			if avail, err = m.SteadyStateAvailability(); err != nil {
				return err
			}
			mttf, err = m.MTTF()
			return err
		})
		if err != nil {
			return nil, err
		}
		sp.Set(obs.I("bdd_nodes", m.BDDSize()))
		sp.End()
		if err := t.AddRow(itoa(n), itoa(m.BDDSize()), f64(avail), f64(mttf), ms(dur)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// E2FaultTree compares the BDD solution with MOCUS enumeration on trees
// with repeated events and a voting gate.
func E2FaultTree(rec obs.Recorder) (*core.Table, error) {
	t := &core.Table{
		ID:      "E2",
		Title:   "Fault tree with repeated events: BDD exact vs MOCUS cut sets vs rare-event bound",
		Columns: []string{"and_pairs", "events", "mincuts", "top_exact", "rare_event_bound", "bdd_ms", "mocus_ms"},
		Notes:   "rare-event bound ≥ exact; both cut-set extractions agree (asserted in tests)",
	}
	for _, pairs := range []int{5, 20, 60, 120} {
		sp := rec.Span("pairs="+itoa(pairs), obs.S("solver", "bdd"))
		shared := &faulttree.Event{Name: "psu", Prob: 1e-4} // repeated event
		gates := make([]*faulttree.Node, 0, pairs+1)
		for i := 0; i < pairs; i++ {
			a := &faulttree.Event{Name: fmt.Sprintf("a%d", i), Prob: 2e-3}
			b := &faulttree.Event{Name: fmt.Sprintf("b%d", i), Prob: 3e-3}
			gates = append(gates, faulttree.And(faulttree.Basic(a), faulttree.Basic(b)))
		}
		gates = append(gates, faulttree.Basic(shared))
		tree, err := faulttree.New(faulttree.Or(gates...))
		if err != nil {
			return nil, err
		}
		var top float64
		bddDur, err := timed(func() error {
			var err error
			top, err = tree.TopStatic()
			return err
		})
		if err != nil {
			return nil, err
		}
		var nCuts int
		mocusDur, err := timed(func() error {
			cuts, err := tree.MOCUS(0)
			if err != nil {
				return err
			}
			nCuts = len(cuts)
			return nil
		})
		if err != nil {
			return nil, err
		}
		bound, err := tree.RareEventBound()
		if err != nil {
			return nil, err
		}
		sp.Set(obs.I("bdd_nodes", tree.BDDSize()), obs.I("mincuts", nCuts))
		sp.End()
		if err := t.AddRow(itoa(pairs), itoa(len(tree.Events())), itoa(nCuts),
			f64(top), f64(bound), ms(bddDur), ms(mocusDur)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// sharedRepairChain builds the CTMC over the 2^n failure bitmasks of n
// distinct components with a single shared repairer (lowest failed index
// first). This is the model whose state space explodes.
func sharedRepairChain(n int, lam, mu float64) (*markov.CTMC, []string, error) {
	c := markov.NewCTMC()
	name := func(mask int) string { return "m" + strconv.Itoa(mask) }
	var upStates []string
	for mask := 0; mask < (1 << n); mask++ {
		if mask == 0 {
			upStates = append(upStates, name(mask))
		}
		// Failures: each currently-up component may fail.
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				// Component-specific rate: spread rates slightly so states
				// are distinguishable (no lumping).
				li := lam * (1 + 0.01*float64(i))
				if err := c.AddRate(name(mask), name(mask|1<<i), li); err != nil {
					return nil, nil, err
				}
			}
		}
		// Repair: the single repairer works on the lowest failed index.
		if mask != 0 {
			low := 0
			for mask&(1<<low) == 0 {
				low++
			}
			if err := c.AddRate(name(mask), name(mask&^(1<<low)), mu); err != nil {
				return nil, nil, err
			}
		}
	}
	return c, upStates, nil
}

// E3StateSpace demonstrates state-space explosion: the shared-repair CTMC
// over n distinct components has 2^n states, and solve time grows
// accordingly, in contrast to E1's linear growth.
func E3StateSpace(rec obs.Recorder) (*core.Table, error) {
	t := &core.Table{
		ID:      "E3",
		Title:   "Shared-repair CTMC: states, transitions, and solve time vs components",
		Columns: []string{"components", "states", "p_all_up", "solve_ms"},
		Notes:   "states = 2^n; time grows super-linearly — the state-space explosion the tutorial warns about",
	}
	lam, mu := 1e-3, 0.1
	for _, n := range []int{4, 6, 8, 10, 12} {
		c, _, err := sharedRepairChain(n, lam, mu)
		if err != nil {
			return nil, err
		}
		sp := rec.Span("n=" + itoa(n))
		var pAllUp float64
		dur, err := timed(func() error {
			pi, err := c.SteadyStateMapWithOptions(markov.SteadyStateOptions{Recorder: sp})
			if err != nil {
				return err
			}
			pAllUp = pi["m0"]
			return nil
		})
		sp.End()
		if err != nil {
			return nil, err
		}
		if err := t.AddRow(itoa(n), itoa(c.NumStates()), f64(pAllUp), ms(dur)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// E4Bounds builds a wide Boeing-style cut system and sweeps the truncation
// level: the kept-cut exact value is a certified lower bound, adding the
// discarded rare-event mass a certified upper bound, and the bracket
// tightens monotonically.
func E4Bounds(rec obs.Recorder) (*core.Table, error) {
	t := &core.Table{
		ID:      "E4",
		Title:   "Truncated cut-set bounds on a wide fault tree (1275 cut sets)",
		Columns: []string{"kept_cuts", "discarded", "lower", "upper", "width"},
		Notes:   "bounds bracket the exact value and tighten monotonically with kept cuts",
	}
	// 50 components; cuts are all pairs (i, j) with probability decaying in
	// i+j, mimicking a wide OR-of-ANDs current-return-network tree.
	nComp := 50
	failP := make([]float64, nComp)
	for i := range failP {
		failP[i] = 1e-3 / (1 + 0.2*float64(i))
	}
	var cuts [][]int
	for i := 0; i < nComp; i++ {
		for j := i + 1; j < nComp; j++ {
			cuts = append(cuts, []int{i, j})
		}
	}
	cs := &bounds.CutSystem{Cuts: cuts, FailP: failP}
	rec.Set(obs.S("solver", "cutset-bounds"), obs.I("cuts", len(cuts)))
	exact, err := cs.Exact()
	if err != nil {
		return nil, err
	}
	for _, keep := range []int{10, 50, 200, 600, len(cuts)} {
		res, err := cs.TruncatedBounds(keep)
		if err != nil {
			return nil, err
		}
		if res.Lower > exact+1e-15 || res.Upper < exact-1e-15 {
			return nil, fmt.Errorf("E4: bounds [%g,%g] do not bracket exact %g", res.Lower, res.Upper, exact)
		}
		if err := t.AddRow(itoa(res.Kept), itoa(res.Discarded),
			f64(res.Lower), f64(res.Upper), f64(res.Width())); err != nil {
			return nil, err
		}
	}
	t.Notes += fmt.Sprintf("; exact top probability %s", f64(exact))
	return t, nil
}

// E5SharedRepair quantifies the independence assumption: an RBD with
// per-component repair is optimistic relative to the exact shared-repair
// CTMC, increasingly so as the repair facility saturates.
func E5SharedRepair(rec obs.Recorder) (*core.Table, error) {
	t := &core.Table{
		ID:      "E5",
		Title:   "Two-component parallel system: independent-repair RBD vs shared-repair CTMC",
		Columns: []string{"lambda/mu", "A_rbd_independent", "A_ctmc_shared", "unavail_ratio"},
		Notes:   "RBD (independence) is always optimistic; in the practical rare-failure regime it understates unavailability by a factor approaching 2 (the repair-queueing contribution)",
	}
	mu := 1.0
	for _, ratio := range []float64{0.001, 0.01, 0.1, 0.5, 1.0} {
		lam := ratio * mu
		life, err := dist.NewExponential(lam)
		if err != nil {
			return nil, err
		}
		repair, err := dist.NewExponential(mu)
		if err != nil {
			return nil, err
		}
		a := &rbd.Component{Name: "a", Lifetime: life, Repair: repair}
		b := &rbd.Component{Name: "b", Lifetime: life, Repair: repair}
		m, err := rbd.New(rbd.Parallel(rbd.Comp(a), rbd.Comp(b)))
		if err != nil {
			return nil, err
		}
		aRBD, err := m.SteadyStateAvailability()
		if err != nil {
			return nil, err
		}
		c := markov.NewCTMC()
		if err := c.AddRate("2", "1", 2*lam); err != nil {
			return nil, err
		}
		if err := c.AddRate("1", "0", lam); err != nil {
			return nil, err
		}
		if err := c.AddRate("1", "2", mu); err != nil {
			return nil, err
		}
		if err := c.AddRate("0", "1", mu); err != nil {
			return nil, err
		}
		pi, err := c.SteadyStateMapWithOptions(markov.SteadyStateOptions{Recorder: rec.Span("ratio=" + f64(ratio))})
		if err != nil {
			return nil, err
		}
		aCTMC := pi["2"] + pi["1"]
		if aRBD < aCTMC-1e-12 {
			return nil, fmt.Errorf("E5: RBD %g should be optimistic vs CTMC %g", aRBD, aCTMC)
		}
		ratioU := (1 - aCTMC) / (1 - aRBD)
		if err := t.AddRow(f64(ratio), f64(aRBD), f64(aCTMC), f64p(ratioU, 4)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// E6FixedPoint compares a monolithic SPN-generated CTMC of k independent
// duplex subsystems against the hierarchical composition (one small Markov
// submodel per subsystem feeding a series RBD): identical availability at a
// tiny fraction of the state count.
func E6FixedPoint(rec obs.Recorder) (*core.Table, error) {
	t := &core.Table{
		ID:      "E6",
		Title:   "Hierarchy vs monolith: k duplex subsystems in series",
		Columns: []string{"subsystems", "monolithic_states", "hier_states", "A_monolithic", "A_hier", "abs_diff"},
		Notes:   "hierarchical result matches the monolithic CTMC while the monolith grows as 3^k",
	}
	lam, mu := 5e-3, 0.5
	for _, k := range []int{2, 3, 4, 5, 6} {
		// Monolithic GSPN: k independent duplex subsystems, each with its
		// own repairer; system up while every subsystem has >= 1 working
		// component.
		net := spn.New()
		for s := 0; s < k; s++ {
			up := fmt.Sprintf("up%d", s)
			down := fmt.Sprintf("down%d", s)
			if err := net.Place(up, 2); err != nil {
				return nil, err
			}
			if err := net.Place(down, 0); err != nil {
				return nil, err
			}
			upIdx, err := net.PlaceIndex(up)
			if err != nil {
				return nil, err
			}
			if err := net.TimedFunc(fmt.Sprintf("fail%d", s), func(m spn.Marking) float64 {
				return lam * float64(m[upIdx])
			}); err != nil {
				return nil, err
			}
			if err := net.Input(up, fmt.Sprintf("fail%d", s), 1); err != nil {
				return nil, err
			}
			if err := net.Output(fmt.Sprintf("fail%d", s), down, 1); err != nil {
				return nil, err
			}
			if err := net.Timed(fmt.Sprintf("repair%d", s), mu); err != nil {
				return nil, err
			}
			if err := net.Input(down, fmt.Sprintf("repair%d", s), 1); err != nil {
				return nil, err
			}
			if err := net.Output(fmt.Sprintf("repair%d", s), up, 1); err != nil {
				return nil, err
			}
		}
		tc, err := net.Generate(0)
		if err != nil {
			return nil, err
		}
		upIdxs := make([]int, k)
		for s := 0; s < k; s++ {
			upIdxs[s], err = net.PlaceIndex(fmt.Sprintf("up%d", s))
			if err != nil {
				return nil, err
			}
		}
		aMono, err := tc.ProbWhere(func(m spn.Marking) bool {
			for _, ui := range upIdxs {
				if m[ui] == 0 {
					return false
				}
			}
			return true
		})
		if err != nil {
			return nil, err
		}

		// Hierarchical: one 3-state shared-repair submodel per subsystem,
		// composed through a series structure.
		sub := hier.FuncModel{
			ModelName: "duplex",
			Out:       []string{"A_sub"},
			Fn: func(map[string]float64) (map[string]float64, error) {
				c := markov.NewCTMC()
				if err := c.AddRate("2", "1", 2*lam); err != nil {
					return nil, err
				}
				if err := c.AddRate("1", "0", lam); err != nil {
					return nil, err
				}
				if err := c.AddRate("1", "2", mu); err != nil {
					return nil, err
				}
				if err := c.AddRate("0", "1", mu); err != nil {
					return nil, err
				}
				pi, err := c.SteadyStateMap()
				if err != nil {
					return nil, err
				}
				return map[string]float64{"A_sub": pi["2"] + pi["1"]}, nil
			},
		}
		kLocal := k
		top := hier.FuncModel{
			ModelName: "series",
			In:        []string{"A_sub"},
			Out:       []string{"A_sys"},
			Fn: func(in map[string]float64) (map[string]float64, error) {
				return map[string]float64{"A_sys": math.Pow(in["A_sub"], float64(kLocal))}, nil
			},
		}
		compn, err := hier.NewComposition(sub, top)
		if err != nil {
			return nil, err
		}
		res, err := compn.Solve(nil, hier.Options{Recorder: rec.Span("k=" + itoa(k))})
		if err != nil {
			return nil, err
		}
		aHier := res.Vars["A_sys"]
		diff := math.Abs(aMono - aHier)
		if diff > 1e-9 {
			return nil, fmt.Errorf("E6: hierarchy %g vs monolith %g differ by %g", aHier, aMono, diff)
		}
		if err := t.AddRow(itoa(k), itoa(tc.NumTangible()), itoa(3),
			f64(aMono), f64(aHier), f64(diff)); err != nil {
			return nil, err
		}
	}
	return t, nil
}
