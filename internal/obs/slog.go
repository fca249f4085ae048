package obs

import (
	"context"
	"log/slog"
)

// LogSpans writes a finished trace to a logger as structured events:
// one Info "span" event per span below root with the span's dotted path,
// wall time, folded iteration summary, and attributes. Events come in
// completion order — each span after its children, siblings in start
// order. A Debug-level logger also gets one "convergence" event per
// recorded iteration, just before its span's event. args (for example
// "corr", id) are attached to every event. The root itself (the trace's
// name and request-level attributes) is not logged. relcli exposes it as
// `-log text|json`.
func LogSpans(log *slog.Logger, root *Span, args ...any) {
	if len(args) > 0 {
		log = log.With(args...)
	}
	debug := log.Enabled(context.Background(), slog.LevelDebug)
	for _, s := range root.Children {
		logSpan(log, debug, "", s)
	}
}

func logSpan(log *slog.Logger, debug bool, parentPath string, s *Span) {
	path := s.Name
	if parentPath != "" {
		path = parentPath + "." + s.Name
	}
	for _, c := range s.Children {
		logSpan(log, debug, path, c)
	}
	if debug {
		for _, it := range s.Iters {
			args := []any{"span", path, "n", it.N, "residual", it.Residual}
			if it.Label != "" {
				args = append(args, "label", it.Label)
			}
			log.Debug("convergence", args...)
		}
	}
	args := make([]any, 0, 2*len(s.Attrs)+8)
	args = append(args, "span", path, "wall_ms", float64(s.WallNS)/1e6)
	if n := len(s.Iters); n > 0 {
		args = append(args, "iterations", n, "last_residual", s.Iters[n-1].Residual)
	}
	for _, a := range s.Attrs {
		args = append(args, a.Key, a.Value())
	}
	log.Info("span", args...)
}
