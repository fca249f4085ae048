package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json compare reads.
type benchDef struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// row is one (workload, metric) comparison.
type row struct {
	workload, metric string
	base, change     [3]float64 // first quartile, median, third quartile
	wins, losses     int
	pairs            int
	verdict          string
}

// runCompare implements `relperf compare`: each side's median and
// quartiles per (workload, metric), and a verdict. An end-to-end metric
// is improved when the change wins at least 9 of 10 pairs and the medians
// differ by more than the parent's interquartile range; regressed when
// its median is worse than the parent's by more than the metric's bound;
// unresolved when the parent's own spread exceeds the bound; unchanged
// otherwise. A per-layer metric has no bound: it is improved or worsened
// by the same pair rule, steady otherwise. Exit status 1 means a
// regression.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("relperf compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "comma-separated result files (-out) of the parent commit")
	change := fs.String("change", "", "comma-separated result files (-out) of the change")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *change == "" {
		fmt.Fprintln(stderr, "relperf compare: -base and -change are required")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		fmt.Fprintf(stderr, "relperf compare: %s: %v\n", *benchPath, err)
		return 2
	}
	load := func(list string) ([]*runResult, error) {
		var out []*runResult
		for _, p := range strings.Split(list, ",") {
			runs, err := readResults(p)
			if err != nil {
				return nil, err
			}
			out = append(out, runs...)
		}
		return out, nil
	}
	b, err := load(*base)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	c, err := load(*change)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rows := compareRuns(def, b, c)
	regressed := false
	fmt.Fprintf(stdout, "%-15s %-32s %-34s %-34s %8s %7s  %s\n",
		"workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict")
	for _, r := range rows {
		delta := (r.change[1] - r.base[1]) / math.Abs(r.base[1]) * 100
		fmt.Fprintf(stdout, "%-15s %-32s %-34s %-34s %+7.1f%% %3d/%-3d  %s\n", r.workload, r.metric,
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.base[1], r.base[0], r.base[2]),
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.change[1], r.change[0], r.change[2]),
			delta, r.wins, r.pairs, r.verdict)
		regressed = regressed || r.verdict == "regressed"
	}
	if regressed {
		return 1
	}
	return 0
}

// compareRuns pairs base and change runs per workload in file order.
func compareRuns(def benchDef, base, change []*runResult) []row {
	type key struct {
		workload string
		trace    bool
	}
	collect := func(runs []*runResult) map[key]map[string][]float64 {
		out := map[key]map[string][]float64{}
		for _, r := range runs {
			k := key{r.Workload, r.Trace}
			if out[k] == nil {
				out[k] = map[string][]float64{}
			}
			for n, m := range r.Metrics {
				out[k][n] = append(out[k][n], m.Value)
			}
		}
		return out
	}
	bv, cv := collect(base), collect(change)
	var rows []row
	for _, w := range workloads {
		for _, set := range []struct {
			trace   bool
			metrics []benchMetric
		}{{false, def.EndToEnd}, {true, def.PerLayer}} {
			k := key{w, set.trace}
			for _, m := range set.metrics {
				b, c := bv[k][m.Name], cv[k][m.Name]
				if len(b) == 0 || len(c) == 0 {
					continue
				}
				rows = append(rows, compareMetric(w, m, b, c, !set.trace))
			}
		}
	}
	return rows
}

func compareMetric(workload string, m benchMetric, b, c []float64, bounded bool) row {
	r := row{workload: workload, metric: m.Name, base: quartiles(b), change: quartiles(c)}
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	r.pairs = len(b)
	if len(c) < r.pairs {
		r.pairs = len(c)
	}
	for i := 0; i < r.pairs; i++ {
		switch {
		case better(c[i], b[i]):
			r.wins++
		case better(b[i], c[i]):
			r.losses++
		}
	}
	iqr := r.base[2] - r.base[0]
	diff := math.Abs(r.change[1] - r.base[1])
	worse := better(r.base[1], r.change[1])
	switch {
	case !worse && r.wins*10 >= r.pairs*9 && diff > iqr:
		r.verdict = "improved"
	case !bounded && worse && r.losses*10 >= r.pairs*9 && diff > iqr:
		r.verdict = "worsened"
	case !bounded:
		r.verdict = "steady"
	case worse && diff > m.Bound*math.Abs(r.base[1]):
		r.verdict = "regressed"
	case iqr > m.Bound*math.Abs(r.base[1]):
		r.verdict = "unresolved"
	default:
		r.verdict = "unchanged"
	}
	return r
}

// quartiles returns the first quartile, median, and third quartile by
// the exclusive method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}
