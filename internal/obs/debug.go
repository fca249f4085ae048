package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/metrics"
)

// RegisterDebug mounts the debug routes on mux: /debug/pprof/ (index,
// profile, heap, trace, …), /debug/vars (expvar: Go's cmdline and
// memstats), and /metrics (reg in Prometheus exposition
// format; nil means the default registry). `relcli serve` reuses it so
// the solve service and the standalone debug server expose identical
// surfaces.
func RegisterDebug(mux *http.ServeMux, reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.Default()
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", reg.Handler())
}

// DebugServer is an opt-in HTTP endpoint serving net/http/pprof profiles,
// the expvar counter page, and /metrics during long solves. It binds its
// own mux so importing this package never touches http.DefaultServeMux.
type DebugServer struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string

	srv *http.Server
	ln  net.Listener
}

// ServeDebug starts a debug server on addr ("localhost:6060", ":0", …)
// with the RegisterDebug routes.
func ServeDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server: %w", err)
	}
	mux := http.NewServeMux()
	RegisterDebug(mux, nil)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { //numvet:allow goroutine-no-ctx lifecycle is DebugServer.Close, not a context
		// Serve returns ErrServerClosed on Close; nothing to report.
		_ = srv.Serve(ln) //numvet:allow ignored-err shutdown race is benign for a debug endpoint
	}()
	return &DebugServer{Addr: ln.Addr().String(), srv: srv, ln: ln}, nil
}

// Close shuts the server down.
func (d *DebugServer) Close() error { return d.srv.Close() }
