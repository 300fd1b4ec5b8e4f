// Operator endpoint: a second listener serving the telemetry registry and
// debug handlers, separate from the protocol port so scrapes and pprof
// sessions never contend with verification traffic.
package main

import (
	"crypto/tls"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"prio/internal/telemetry"
)

// aggregatesHandler is the /aggregates route, installed late: the admin
// endpoint starts before the protocol stack (and thus before the window
// service) exists, so the route answers 404 until the member is up.
var aggregatesHandler atomic.Pointer[http.Handler]

func setAggregatesHandler(h http.Handler) { aggregatesHandler.Store(&h) }

// startAdmin serves /metrics, /healthz, /aggregates, /debug/vars,
// /debug/pprof/*, and /debug/trace on addr. A non-nil tlsCfg wraps the listener in TLS (the
// same material as the protocol port); nil serves plaintext.
func startAdmin(addr string, tlsCfg *tls.Config, tr *telemetry.Tracer) (net.Listener, error) {
	telemetry.RegisterRuntimeMetrics(telemetry.Default)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tlsCfg != nil {
		ln = tls.NewListener(ln, tlsCfg)
	}
	mux := http.NewServeMux()
	mux.Handle("/", telemetry.AdminHandler(telemetry.Default, tr))
	mux.HandleFunc("/aggregates", func(w http.ResponseWriter, r *http.Request) {
		if h := aggregatesHandler.Load(); h != nil {
			(*h).ServeHTTP(w, r)
			return
		}
		http.Error(w, "window service not started yet", http.StatusNotFound)
	})
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		if err := srv.Serve(ln); err != nil &&
			!errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
			slog.Warn("admin endpoint stopped", "err", err)
		}
	}()
	return ln, nil
}
