package telemetry

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
)

// Handler returns an http.Handler serving the debug endpoints:
//
//	/metrics  Prometheus text exposition of the metrics registry
//	/trace    Chrome trace-event JSON of the span ring buffer
//
// It is what ServeDebug serves, and works with a nil *Telemetry (both
// endpoints serve valid, empty documents).
func Handler(t *Telemetry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = t.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = t.Tracer().WriteTrace(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("hetmp telemetry\n\n/metrics  Prometheus text format\n/trace    Chrome trace-event JSON\n"))
	})
	return mux
}

// ServeDebug listens on addr and serves Handler(t) there in the
// background: the -debug-addr endpoint of hetserve and hetworker. It
// returns the server, which Shutdown or Close stops, and the bound
// address, the only way to find the port when addr names port 0. A
// serve error other than a shutdown is reported on stderr under name.
func ServeDebug(name, addr string, t *Telemetry) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("debug listener: %w", err)
	}
	srv := &http.Server{Handler: Handler(t)}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "%s: debug server: %v\n", name, err)
		}
	}()
	return srv, ln.Addr(), nil
}
