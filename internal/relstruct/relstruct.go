// Package relstruct statically analyzes the structure of Markov chain
// generators — the model-level analogue of cmd/numvet's source hygiene
// pass. Without solving anything it computes, from O(states +
// transitions·log) sweeps over the transition graph plus a budgeted
// partition refinement whose cost coarsestPartition spells out:
//
//   - the SCC condensation with every communicating class labeled
//     recurrent (closed) or transient, absorbing states called out, and —
//     for discrete chains — the period of each recurrent class;
//   - a stiffness estimate: the rate-ratio spread inside each recurrent
//     class, the quantity that stalls iterative steady-state solvers;
//   - the coarsest ordinarily-lumpable partition, found by signature-based
//     partition refinement from a caller-supplied seed (up/down sets,
//     absorbing targets), which is what makes automatic state-space
//     reduction safe for availability and MTTA measures;
//   - a solver hint distilled from the above: prefer the exact method
//     first when the chain is stiff or periodic, restrict to the single
//     recurrent class when transient states carry no stationary mass, or
//     lump before solving.
//
// A chain is handed over as it is held: states by index, transitions as
// parallel From/To index arrays with their weights. markov's chains and
// modelio's compiled plans number their states once and pass their own
// arrays, which Analyze reads and never copies or modifies; lint numbers
// a document's states itself. Analyze lays the adjacency out in one
// backing array, and the partition refinement sorts its rows through one
// reused sorter and groups signatures without a key string or member
// list per group, so an analysis costs a few allocations per
// refinement step rather than a few per state.
//
// Callers that need only part of the report ask for that part.
// AnalyzeLumping computes the partition alone, for the automatic lumping
// pre-pass. AnalyzeClasses skips the partition, for the chain solvers,
// which read only the hint and the recurrent classes. ClosedClasses
// counts the closed classes of any adjacency, for the steady-state
// solver's choice of method.
//
// Exit weights bound the partition from below. Two states share a block
// only if they share a seed label and their exit weights lie within
// 2·tol of each other, so before refining, the partition sorts the
// states by label and exit weight. When no two neighbours in that order
// could share a block, every state is alone, and it returns that
// partition without building the aggregated adjacency. A repair farm of
// unlike machines ends there.
//
// The package is deliberately dependency-free (stdlib only): internal/lint,
// internal/markov, and internal/modelio all build on it, so it must sit
// below every solver package in the import graph.
package relstruct

import (
	"errors"
	"fmt"
	"math"
)

// StiffThreshold is the within-class rate-ratio spread beyond which a
// chain counts as stiff: iterative methods (SOR, power iteration) need
// iteration counts on the order of the ratio to propagate probability
// mass between the fast and slow time scales, so exact elimination (GTH)
// or uniformization-first ordering wins.
const StiffThreshold = 1e6

// ExtremeSpanThreshold is the global rate spread beyond which double
// precision itself becomes the limiting factor and rescaling time units
// is advisable regardless of solver.
const ExtremeSpanThreshold = 1e12

// partitionCap bounds the state count up to which the lumping partition
// is spelled out state-by-state in the JSON report; beyond it only the
// block count and ratio are reported, keeping analyze output bounded.
const partitionCap = 256

// Input describes a chain to Analyze. States are identified by index;
// Names is optional and only affects report readability.
type Input struct {
	// States is the number of states (indices 0..States-1).
	States int
	// Names labels the states; nil synthesizes "s0", "s1", ….
	Names []string
	// From, To and Weight list the transitions, the k-th from state
	// From[k] to state To[k] with weight Weight[k]: a rate for continuous
	// chains, a probability for discrete ones. A chain passes its own
	// transition arrays; Analyze never modifies them. Self-loops are
	// permitted (they matter for discrete-chain periodicity) and multiple
	// entries for one pair accumulate.
	From, To []int
	Weight   []float64
	// Discrete marks a DTMC: weights are probabilities and recurrent
	// classes get a periodicity analysis.
	Discrete bool
	// Seed is an optional initial partition for the lumpability
	// refinement: states with different seed labels never share a block.
	// Callers seed with the sets their measures distinguish (up states,
	// absorbing targets) so the coarsest refinement preserves those
	// measures exactly. Nil starts from one all-states block.
	Seed []int
	// Tol is the relative tolerance for comparing aggregated weights
	// during lumpability refinement (0 means 1e-9).
	Tol float64
}

// Class is one communicating class (SCC) of the chain.
type Class struct {
	// Index is the class's position in the report (ordered by smallest
	// member state index).
	Index int `json:"index"`
	// States lists the member state names, sorted by state index.
	States []string `json:"states"`
	// Recurrent marks a closed class (no transitions leave it); open
	// classes are transient.
	Recurrent bool `json:"recurrent"`
	// Absorbing marks a single-state recurrent class.
	Absorbing bool `json:"absorbing,omitempty"`
	// Period is the class period for discrete chains (1 = aperiodic);
	// omitted for continuous chains and classes without internal
	// transitions.
	Period int `json:"period,omitempty"`
	// RateRatio is the max/min spread of transition weights inside a
	// recurrent class (the per-class stiffness estimate); omitted for
	// transient classes and classes without internal transitions.
	RateRatio float64 `json:"rateRatio,omitempty"`
}

// Stiffness summarizes the rate-scale analysis.
type Stiffness struct {
	// RateMin and RateMax bound the positive transition weights of the
	// whole chain.
	RateMin float64 `json:"rateMin,omitempty"`
	RateMax float64 `json:"rateMax,omitempty"`
	// Ratio is the global spread RateMax/RateMin.
	Ratio float64 `json:"ratio,omitempty"`
	// MaxClassRatio is the largest within-recurrent-class spread — the
	// number that actually predicts iterative-solver stalling.
	MaxClassRatio float64 `json:"maxClassRatio,omitempty"`
	// Stiff reports MaxClassRatio ≥ StiffThreshold.
	Stiff bool `json:"stiff"`
}

// Lumping summarizes the coarsest ordinarily-lumpable partition that
// also preserves every state's total exit rate (so the aggregated chain
// keeps the original sojourn structure and markov.Lump accepts it).
type Lumping struct {
	// Blocks is the number of blocks of the coarsest partition.
	Blocks int `json:"blocks"`
	// Ratio is States/Blocks — the state-space reduction factor an exact
	// lumping pre-pass achieves.
	Ratio float64 `json:"ratio"`
	// Lumpable reports Blocks < States.
	Lumpable bool `json:"lumpable"`
	// Partition spells out the blocks (members sorted by state index,
	// blocks ordered by smallest member) when the chain is lumpable and
	// small enough to print (see partitionCap). The first member of each
	// block is its canonical representative.
	Partition [][]string `json:"partition,omitempty"`

	// blockOf maps state index -> block id; kept out of the JSON (the
	// Partition field is the readable form) but always populated so
	// programmatic callers can lump without re-deriving it.
	blockOf []int
}

// BlockOf returns the block id (0-based, ordered by smallest member
// state index) of each state, regardless of partitionCap.
func (l *Lumping) BlockOf() []int {
	out := make([]int, len(l.blockOf))
	copy(out, l.blockOf)
	return out
}

// Hint is the solver advice distilled from the structure.
type Hint struct {
	// Method names the chain-solver step to try first ("gth" when the
	// chain is stiff or periodic); "" keeps the default order.
	Method string `json:"method,omitempty"`
	// Reduce names the applicable state-space reduction:
	// "restrict-recurrent" (solve only the single recurrent class) or
	// "lump" (aggregate symmetric states first).
	Reduce string `json:"reduce,omitempty"`
	// Reason explains the advice for traces and reports.
	Reason string `json:"reason,omitempty"`
}

// StructReport is the full static analysis of one chain.
type StructReport struct {
	States      int  `json:"states"`
	Transitions int  `json:"transitions"`
	Discrete    bool `json:"discrete,omitempty"`
	// Irreducible reports a single communicating class.
	Irreducible bool `json:"irreducible"`
	// RecurrentClasses counts the closed classes; TransientStates counts
	// states outside every closed class.
	RecurrentClasses int `json:"recurrentClasses"`
	TransientStates  int `json:"transientStates"`
	// Components counts weakly connected components; >1 means the chain
	// splits into independent sub-chains.
	Components int     `json:"components"`
	Classes    []Class `json:"classes"`
	// AbsorbingStates lists the states forming single-state recurrent
	// classes, sorted by state index.
	AbsorbingStates []string  `json:"absorbingStates,omitempty"`
	Stiffness       Stiffness `json:"stiffness"`
	Lumping         Lumping   `json:"lumping"`
	Hint            Hint      `json:"hint"`

	names   []string
	classOf []int
	adj     [][]int // out-neighbours per state, self-loops and repeats kept
}

// StateNames returns the (possibly synthesized) state names in index order.
func (r *StructReport) StateNames() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// ClassOf returns each state's class index into Classes.
func (r *StructReport) ClassOf() []int {
	out := make([]int, len(r.classOf))
	copy(out, r.classOf)
	return out
}

// Reachable reports, per state, whether a path of transitions leads to it
// from state index from; from itself always counts.
func (r *StructReport) Reachable(from int) []bool {
	reach := make([]bool, len(r.adj))
	reach[from] = true
	// Each state is pushed at most once.
	stack := append(make([]int, 0, len(r.adj)), from)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range r.adj[v] {
			if !reach[w] {
				reach[w] = true
				stack = append(stack, w)
			}
		}
	}
	return reach
}

// RecurrentMembers returns the state indices of the i-th recurrent class
// (in report order), sorted ascending.
func (r *StructReport) RecurrentMembers(i int) []int {
	seen := 0
	for ci, cl := range r.Classes {
		if !cl.Recurrent {
			continue
		}
		if seen == i {
			var out []int
			for s, c := range r.classOf {
				if c == ci {
					out = append(out, s)
				}
			}
			return out
		}
		seen++
	}
	return nil
}

// Errors returned by Analyze.
var (
	ErrEmpty    = errors.New("relstruct: chain has no states")
	ErrBadInput = errors.New("relstruct: invalid input")
)

// Analyze computes the full structural report.
func Analyze(in Input) (*StructReport, error) {
	rep, err := classes(in)
	if err != nil {
		return nil, err
	}
	rep.Lumping = lumping(in, rep.names)
	rep.Hint = hint(rep)
	return rep, nil
}

// AnalyzeClasses is Analyze without the lumping refinement: the classes,
// components, periods, stiffness and hint, with the Lumping section left
// zero, so the hint never advises lumping. The chain solvers read only
// the hint's method and the recurrent classes, which do not depend on the
// partition.
func AnalyzeClasses(in Input) (*StructReport, error) {
	rep, err := classes(in)
	if err != nil {
		return nil, err
	}
	rep.Hint = hint(rep)
	return rep, nil
}

// classes computes every section of the report but the partition and
// the hint.
func classes(in Input) (*StructReport, error) {
	names, err := check(in)
	if err != nil {
		return nil, err
	}
	n := in.States
	adj := adjacency(n, in.From, in.To)
	rep := &StructReport{
		States:      n,
		Transitions: len(in.From),
		Discrete:    in.Discrete,
		names:       names,
		adj:         adj,
	}

	rep.classOf, rep.Classes = condense(n, adj, names)
	markClosedClasses(rep, in.From, in.To)
	rep.Components = weakComponents(n, in.From, in.To)
	if in.Discrete {
		periods(rep, adj)
	}
	stiffness(rep, in)
	return rep, nil
}

// AnalyzeLumping computes only the Lumping section of Analyze's report,
// the same partition, for the automatic lumping pre-pass. It builds none
// of the condensation, weak components, stiffness or hint, which the
// partition does not read, and it reads in.Names only to spell out the
// partition.
func AnalyzeLumping(in Input) (*Lumping, error) {
	names, err := check(in)
	if err != nil {
		return nil, err
	}
	l := lumping(in, names)
	return &l, nil
}

// check validates in, as every analysis does before reading it, and
// returns the state names, synthesizing "s0", "s1", … when in has none.
func check(in Input) ([]string, error) {
	n := in.States
	if n <= 0 {
		return nil, ErrEmpty
	}
	names := in.Names
	if names == nil {
		names = make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("s%d", i)
		}
	}
	if len(names) != n {
		return nil, fmt.Errorf("%w: %d names for %d states", ErrBadInput, len(names), n)
	}
	if in.Seed != nil && len(in.Seed) != n {
		return nil, fmt.Errorf("%w: seed len %d for %d states", ErrBadInput, len(in.Seed), n)
	}
	if len(in.To) != len(in.From) || len(in.Weight) != len(in.From) {
		return nil, fmt.Errorf("%w: %d sources, %d targets and %d weights", ErrBadInput, len(in.From), len(in.To), len(in.Weight))
	}
	for k, f := range in.From {
		if t := in.To[k]; f < 0 || f >= n || t < 0 || t >= n {
			return nil, fmt.Errorf("%w: transition %d -> %d outside 0..%d", ErrBadInput, f, t, n-1)
		}
	}
	return names, nil
}

// adjacency lists each state's out-neighbours in transition order,
// self-loops and repeats kept; check has validated the indices. The
// lists are carved from one backing array, sized by a count per state,
// so building them allocates three times whatever the chain's size.
func adjacency(n int, from, to []int) [][]int {
	start := make([]int, n+1)
	for _, f := range from {
		start[f+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	backing := make([]int, len(from))
	adj := make([][]int, n)
	for i := range adj {
		adj[i] = backing[start[i]:start[i]:start[i+1]]
	}
	for k, f := range from {
		adj[f] = append(adj[f], to[k])
	}
	return adj
}

// markClosedClasses flags recurrent/absorbing classes and fills the
// summary counters.
func markClosedClasses(rep *StructReport, from, to []int) {
	closed := make([]bool, len(rep.Classes))
	size := make([]int, len(rep.Classes))
	for i := range closed {
		closed[i] = true
	}
	for _, c := range rep.classOf {
		size[c]++
	}
	for k, f := range from {
		if cf := rep.classOf[f]; cf != rep.classOf[to[k]] {
			closed[cf] = false
		}
	}
	for i := range rep.Classes {
		cl := &rep.Classes[i]
		cl.Recurrent = closed[i]
		if closed[i] {
			rep.RecurrentClasses++
			if size[i] == 1 {
				cl.Absorbing = true
				rep.AbsorbingStates = append(rep.AbsorbingStates, cl.States[0])
			}
		} else {
			rep.TransientStates += size[i]
		}
	}
	rep.Irreducible = len(rep.Classes) == 1
}

// periods computes the period of every recurrent class of a discrete
// chain: the gcd of (level[u]+1-level[v]) over the class's internal edges,
// with BFS levels from the class's smallest member.
func periods(rep *StructReport, adj [][]int) {
	n := len(rep.classOf)
	level := make([]int, n)
	for ci := range rep.Classes {
		cl := &rep.Classes[ci]
		if !cl.Recurrent {
			continue
		}
		// Find the smallest member index.
		root := -1
		for s := 0; s < n && root < 0; s++ {
			if rep.classOf[s] == ci {
				root = s
			}
		}
		for s := 0; s < n; s++ {
			level[s] = -1
		}
		level[root] = 0
		queue := []int{root}
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, w := range adj[u] {
				if rep.classOf[w] != ci {
					continue
				}
				if level[w] < 0 {
					level[w] = level[u] + 1
					queue = append(queue, w)
				}
			}
		}
		g := 0
		for _, u := range queue {
			for _, w := range adj[u] {
				if rep.classOf[w] != ci {
					continue
				}
				g = gcd(g, abs(level[u]+1-level[w]))
			}
		}
		cl.Period = g
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// stiffness fills the global and per-recurrent-class rate-ratio spreads.
func stiffness(rep *StructReport, in Input) {
	gMin, gMax := math.Inf(1), 0.0
	cMin := make([]float64, len(rep.Classes))
	cMax := make([]float64, len(rep.Classes))
	for i := range cMin {
		cMin[i] = math.Inf(1)
	}
	for k, w := range in.Weight {
		if !(w > 0) || math.IsInf(w, 0) {
			continue
		}
		gMin = math.Min(gMin, w)
		gMax = math.Max(gMax, w)
		cf := rep.classOf[in.From[k]]
		if rep.classOf[in.To[k]] == cf && rep.Classes[cf].Recurrent {
			cMin[cf] = math.Min(cMin[cf], w)
			cMax[cf] = math.Max(cMax[cf], w)
		}
	}
	if gMax > 0 && !math.IsInf(gMin, 1) {
		rep.Stiffness.RateMin = gMin
		rep.Stiffness.RateMax = gMax
		rep.Stiffness.Ratio = gMax / gMin
	}
	for i := range rep.Classes {
		if cMax[i] > 0 && !math.IsInf(cMin[i], 1) {
			ratio := cMax[i] / cMin[i]
			rep.Classes[i].RateRatio = ratio
			rep.Stiffness.MaxClassRatio = math.Max(rep.Stiffness.MaxClassRatio, ratio)
		}
	}
	rep.Stiffness.Stiff = rep.Stiffness.MaxClassRatio >= StiffThreshold
}

// lumping runs the partition refinement and returns the Lumping section.
func lumping(in Input, names []string) Lumping {
	blockOf, blocks := coarsestPartition(in)
	l := Lumping{
		blockOf:  blockOf,
		Blocks:   blocks,
		Ratio:    float64(in.States) / float64(blocks),
		Lumpable: blocks < in.States,
	}
	if l.Lumpable && in.States <= partitionCap {
		members := make([][]string, blocks)
		for s, b := range blockOf {
			members[b] = append(members[b], names[s])
		}
		l.Partition = members
	}
	return l
}

// hint distills the solver advice.
func hint(rep *StructReport) Hint {
	var h Hint
	switch {
	case rep.Stiffness.Stiff:
		h.Method = "gth"
		h.Reason = fmt.Sprintf("stiff: within-class rate ratio %.3g exceeds %.0e", rep.Stiffness.MaxClassRatio, float64(StiffThreshold))
	case rep.Discrete && maxPeriod(rep) > 1:
		h.Method = "gth"
		h.Reason = fmt.Sprintf("periodic: recurrent class with period %d defeats power iteration", maxPeriod(rep))
	}
	switch {
	case rep.RecurrentClasses == 1 && rep.TransientStates > 0:
		h.Reduce = "restrict-recurrent"
		if h.Reason == "" {
			h.Reason = fmt.Sprintf("%d transient state(s) carry no stationary mass; solve the single recurrent class", rep.TransientStates)
		}
	case rep.Lumping.Lumpable:
		h.Reduce = "lump"
		if h.Reason == "" {
			h.Reason = fmt.Sprintf("exactly lumpable: %d states aggregate to %d blocks", rep.States, rep.Lumping.Blocks)
		}
	}
	return h
}

func maxPeriod(rep *StructReport) int {
	p := 0
	for _, cl := range rep.Classes {
		if cl.Recurrent && cl.Period > p {
			p = cl.Period
		}
	}
	return p
}

// SeedSets builds a seed partition from membership sets: two states share
// a seed label iff they belong to exactly the same subset of the given
// sets. Measures that only distinguish those sets (availability over up
// states, MTTA into absorbing targets) are then preserved exactly by any
// refinement of the seed.
func SeedSets(names []string, sets ...[]string) []int {
	member := make([]map[string]bool, len(sets))
	for i, set := range sets {
		member[i] = make(map[string]bool, len(set))
		for _, s := range set {
			member[i][s] = true
		}
	}
	seed := make([]int, len(names))
	for i, name := range names {
		mask := 0
		for j := range sets {
			if member[j][name] {
				mask |= 1 << j
			}
		}
		seed[i] = mask
	}
	return seed
}
