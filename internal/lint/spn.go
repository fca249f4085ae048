package lint

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// SPNPlace is one place declaration under lint.
type SPNPlace struct {
	Name   string
	Tokens int
}

// SPNTransition is one transition declaration under lint.
type SPNTransition struct {
	Name string
	// Kind is "timed" or "immediate".
	Kind string
	// Rate is the exponential rate (timed) or weight (immediate).
	Rate float64
}

// SPNArc is one arc declaration under lint.
type SPNArc struct {
	// Kind is "input", "output", or "inhibitor".
	Kind       string
	Place      string
	Transition string
	// Mult is the multiplicity; 0 means the default of 1.
	Mult int
}

// SPN is the linter's view of a stochastic Petri net.
type SPN struct {
	Places      []SPNPlace
	Transitions []SPNTransition
	Arcs        []SPNArc
}

// CheckSPN runs the structural checks on a stochastic Petri net: dangling
// arc references, invalid rates and multiplicities, structurally dead
// transitions, and source transitions that make their output places
// obviously unbounded.
func CheckSPN(n SPN) []Diagnostic {
	var ds []Diagnostic
	places := map[string]bool{}
	for i, p := range n.Places {
		path := fmt.Sprintf("spn.places[%d]", i)
		if p.Name == "" {
			ds = errf(ds, CodePNDuplicateName, path, "place has no name")
			continue
		}
		if places[p.Name] {
			ds = errf(ds, CodePNDuplicateName, path, "place %q declared more than once", p.Name)
		}
		places[p.Name] = true
		if p.Tokens < 0 {
			ds = errf(ds, CodePNNegativeTokens, path+".tokens",
				"place %q starts with %d tokens; token counts cannot be negative", p.Name, p.Tokens)
		}
	}
	trans := map[string]bool{}
	for i, t := range n.Transitions {
		path := fmt.Sprintf("spn.transitions[%d]", i)
		if t.Name == "" {
			ds = errf(ds, CodePNDuplicateName, path, "transition has no name")
			continue
		}
		if trans[t.Name] || places[t.Name] {
			ds = errf(ds, CodePNDuplicateName, path, "name %q is already in use", t.Name)
		}
		trans[t.Name] = true
		if t.Rate <= 0 || math.IsNaN(t.Rate) || math.IsInf(t.Rate, 0) {
			what := "rate"
			if t.Kind == "immediate" {
				what = "weight"
			}
			ds = errf(ds, CodePNBadRate, path+".rate",
				"transition %q %s %g is not a positive finite number", t.Name, what, t.Rate)
		}
	}

	// Per-transition arc summary: input/inhibitor multiplicities by place,
	// and whether the transition touches any arc at all.
	type arcSet struct {
		in, inhib map[string]int
		outputs   []string
		touched   bool
	}
	byTrans := map[string]*arcSet{}
	for name := range trans {
		byTrans[name] = &arcSet{in: map[string]int{}, inhib: map[string]int{}}
	}
	placeTouched := map[string]bool{}
	for i, a := range n.Arcs {
		path := fmt.Sprintf("spn.arcs[%d]", i)
		if !places[a.Place] {
			ds = errf(ds, CodePNUnknownPlace, path, "arc references undeclared place %q", a.Place)
		}
		if !trans[a.Transition] {
			ds = errf(ds, CodePNUnknownTransition, path, "arc references undeclared transition %q", a.Transition)
		}
		mult := a.Mult
		if mult == 0 {
			mult = 1
		}
		if mult < 0 {
			ds = errf(ds, CodePNBadMult, path+".mult",
				"arc multiplicity %d must be positive", a.Mult)
		}
		if !places[a.Place] || !trans[a.Transition] {
			continue
		}
		placeTouched[a.Place] = true
		set := byTrans[a.Transition]
		set.touched = true
		switch a.Kind {
		case "input":
			set.in[a.Place] += mult
		case "inhibitor":
			// Multiple inhibitor arcs on a pair: the tightest bound wins.
			if cur, ok := set.inhib[a.Place]; !ok || mult < cur {
				set.inhib[a.Place] = mult
			}
		case "output":
			set.outputs = append(set.outputs, a.Place)
		}
	}

	for i, t := range n.Transitions {
		set, ok := byTrans[t.Name]
		if !ok {
			continue
		}
		path := fmt.Sprintf("spn.transitions[%d]", i)
		if !set.touched {
			ds = warnf(ds, CodePNDisconnected, path,
				"transition %q has no arcs; it is either always enabled or a leftover", t.Name)
			continue
		}
		// Structurally dead: needs ≥ mult tokens in a place while an
		// inhibitor on the same place forbids ≥ inhibMult ≤ mult tokens.
		for _, place := range sortedKeys(set.in) {
			need := set.in[place]
			if bound, ok := set.inhib[place]; ok && bound <= need {
				ds = errf(ds, CodePNDeadTransition, path,
					"transition %q needs %d token(s) in %q but its inhibitor arc disables it at %d; it can never fire", t.Name, need, place, bound)
			}
		}
		// Source transition: always enabled, so every output place grows
		// without bound and reachability exploration cannot terminate.
		if len(set.in) == 0 && len(set.inhib) == 0 && len(set.outputs) > 0 {
			outs := append([]string(nil), set.outputs...)
			sort.Strings(outs)
			ds = warnf(ds, CodePNUnbounded, path,
				"transition %q has no input or inhibitor arcs; output place(s) %s are unbounded and the reachability graph is infinite", t.Name, strings.Join(outs, ", "))
		}
	}
	for i, p := range n.Places {
		if p.Name != "" && !placeTouched[p.Name] {
			ds = warnf(ds, CodePNDisconnected, fmt.Sprintf("spn.places[%d]", i),
				"place %q is not connected to any transition", p.Name)
		}
	}
	return ds
}
