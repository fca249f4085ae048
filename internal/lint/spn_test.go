package lint

import (
	"strings"
	"testing"

	"repro/internal/modelio"
)

func mm1kNet() *modelio.SPNSpec {
	return &modelio.SPNSpec{
		Places: []modelio.SPNPlace{{Name: "queue", Tokens: 0}, {Name: "slots", Tokens: 5}},
		Transitions: []modelio.SPNTransition{
			{Name: "arrive", Kind: "timed", Rate: 3},
			{Name: "serve", Kind: "timed", Rate: 4},
		},
		Arcs: []modelio.SPNArc{
			{Kind: "input", Place: "slots", Transition: "arrive"},
			{Kind: "output", Place: "queue", Transition: "arrive"},
			{Kind: "input", Place: "queue", Transition: "serve"},
			{Kind: "output", Place: "slots", Transition: "serve"},
		},
	}
}

func TestCheckSPNClean(t *testing.T) {
	if ds := CheckSPN(mm1kNet()); len(ds) != 0 {
		t.Errorf("clean net produced diagnostics: %v", ds)
	}
}

func TestCheckSPNUnknownReferences(t *testing.T) {
	n := mm1kNet()
	n.Arcs = append(n.Arcs,
		modelio.SPNArc{Kind: "input", Place: "ghost", Transition: "serve"},
		modelio.SPNArc{Kind: "output", Place: "queue", Transition: "phantom"},
	)
	ds := CheckSPN(n)
	wantCode(t, ds, CodePNUnknownPlace, SevError)
	wantCode(t, ds, CodePNUnknownTransition, SevError)
}

func TestCheckSPNBadRateAndTokens(t *testing.T) {
	n := mm1kNet()
	n.Transitions[0].Rate = 0
	n.Places[0].Tokens = -2
	ds := CheckSPN(n)
	wantCode(t, ds, CodePNBadRate, SevError)
	wantCode(t, ds, CodePNNegativeTokens, SevError)
}

func TestCheckSPNDeadTransition(t *testing.T) {
	// serve needs 2 tokens in queue but an inhibitor disables it at 1: it
	// can never be enabled.
	n := mm1kNet()
	n.Arcs[2].Mult = 2
	n.Arcs = append(n.Arcs, modelio.SPNArc{Kind: "inhibitor", Place: "queue", Transition: "serve", Mult: 1})
	ds := CheckSPN(n)
	d := wantCode(t, ds, CodePNDeadTransition, SevError)
	if !strings.Contains(d.Msg, "serve") {
		t.Errorf("dead-transition error should name the transition: %s", d.Msg)
	}
}

func TestCheckSPNUnboundedSource(t *testing.T) {
	n := &modelio.SPNSpec{
		Places:      []modelio.SPNPlace{{Name: "pool", Tokens: 0}},
		Transitions: []modelio.SPNTransition{{Name: "gen", Kind: "timed", Rate: 1}},
		Arcs:        []modelio.SPNArc{{Kind: "output", Place: "pool", Transition: "gen"}},
	}
	d := wantCode(t, CheckSPN(n), CodePNUnbounded, SevWarning)
	if !strings.Contains(d.Msg, "pool") {
		t.Errorf("unbounded warning should name the place: %s", d.Msg)
	}
}

func TestCheckSPNDuplicateAndDisconnected(t *testing.T) {
	n := &modelio.SPNSpec{
		Places: []modelio.SPNPlace{{Name: "p", Tokens: 1}, {Name: "p", Tokens: 0}, {Name: "lonely", Tokens: 0}},
		Transitions: []modelio.SPNTransition{
			{Name: "t1", Kind: "timed", Rate: 1},
			{Name: "idle", Kind: "timed", Rate: 1},
		},
		Arcs: []modelio.SPNArc{
			{Kind: "input", Place: "p", Transition: "t1"},
			{Kind: "output", Place: "p", Transition: "t1"},
		},
	}
	ds := CheckSPN(n)
	wantCode(t, ds, CodePNDuplicateName, SevError)
	if got := codes(ds)[CodePNDisconnected]; got != 2 {
		t.Errorf("want 2 PN009 (transition idle, place lonely), got %d: %v", got, ds)
	}
}

func TestCheckSPNBadMultiplicity(t *testing.T) {
	n := mm1kNet()
	n.Arcs[0].Mult = -1
	wantCode(t, CheckSPN(n), CodePNBadMult, SevError)
}
