package obsv

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// Handler serves the registry's live snapshot. Plain text (WriteText) by
// default; JSON when the request has ?format=json or an Accept header
// preferring application/json. Used by the kvserve -metrics-addr sidecar;
// the same encoders back `hrmsim -json`.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := r.Snapshot()
		if wantsJSON(req) {
			b, err := s.MarshalJSONIndent()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(append(b, '\n'))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = s.WriteText(w)
	})
}

// wantsJSON reports whether the request asked for the JSON encoding.
func wantsJSON(req *http.Request) bool {
	if req.URL.Query().Get("format") == "json" {
		return true
	}
	return strings.Contains(req.Header.Get("Accept"), "application/json")
}

// SidecarMux builds the observability handler set every long-lived
// process serves beside its real work: metrics at /metrics, a liveness
// probe at /healthz, and the standard pprof profiling handlers. Callers
// add their own routes on top.
func SidecarMux(metrics http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeSidecar serves h on ln in the background and returns the func that
// shuts it down, draining in-flight requests for up to 3 s. The sidecar
// is long-lived and unauthenticated, so a slow or stalled client must not
// be able to pin a connection (and its goroutine) forever. No
// WriteTimeout: pprof profile captures legitimately stream for tens of
// seconds. A serve failure is handed to onErr.
func ServeSidecar(ln net.Listener, h http.Handler, onErr func(error)) (shutdown func()) {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			onErr(err)
		}
	}()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
}
