package lint

import (
	"testing"

	"repro/internal/modelio"
)

func TestCheckDist(t *testing.T) {
	cases := []struct {
		name string
		d    modelio.DistSpec
		code string // "" means clean
		msg  string // "" means any message
	}{
		{"valid exponential", modelio.DistSpec{Kind: "exponential", Rate: 0.5}, "", ""},
		{"zero exponential rate", modelio.DistSpec{Kind: "exponential", Rate: 0}, CodeDistBadParam, "exponential rate 0: dist: invalid parameter"},
		{"valid weibull", modelio.DistSpec{Kind: "weibull", Shape: 1.5, Scale: 8000}, "", ""},
		{"negative weibull shape", modelio.DistSpec{Kind: "weibull", Shape: -1, Scale: 10}, CodeDistBadParam, ""},
		{"valid lognormal", modelio.DistSpec{Kind: "lognormal", Mu: 1.2, Sigma: 0.5}, "", ""},
		{"zero lognormal sigma", modelio.DistSpec{Kind: "lognormal", Mu: 1, Sigma: 0}, CodeDistBadParam, ""},
		{"valid gamma", modelio.DistSpec{Kind: "gamma", Shape: 2, Rate: 1}, "", ""},
		{"valid deterministic", modelio.DistSpec{Kind: "deterministic", Value: 4}, "", ""},
		{"negative deterministic", modelio.DistSpec{Kind: "deterministic", Value: -1}, CodeDistBadParam, ""},
		{"valid uniform", modelio.DistSpec{Kind: "uniform", Lo: 1, Hi: 2}, "", ""},
		{"inverted uniform", modelio.DistSpec{Kind: "uniform", Lo: 2, Hi: 1}, CodeDistBadParam, ""},
		{"valid erlang", modelio.DistSpec{Kind: "erlang", Stages: 3, Rate: 1}, "", ""},
		{"zero erlang stages", modelio.DistSpec{Kind: "erlang", Stages: 0, Rate: 1}, CodeDistBadParam, ""},
		{"unknown kind", modelio.DistSpec{Kind: "zipf", Rate: 1}, CodeDistUnknownKind, `unknown distribution kind "zipf"`},
	}
	for _, c := range cases {
		ds := CheckDist("x.lifetime", &c.d)
		if c.code == "" {
			if len(ds) != 0 {
				t.Errorf("%s: unexpected diagnostics %v", c.name, ds)
			}
			continue
		}
		d := wantCode(t, ds, c.code, SevError)
		if d.Path != "x.lifetime" {
			t.Errorf("%s: bad path %q", c.name, d.Path)
		}
		if c.msg != "" && d.Msg != c.msg {
			t.Errorf("%s: message %q, want %q", c.name, d.Msg, c.msg)
		}
	}
}
