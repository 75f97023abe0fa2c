// Command kvserve runs the simulated in-memory key–value store behind a
// tiny memcached-like TCP text protocol, with memory errors arriving on a
// virtual clock — a live demonstration of what a given error rate does to
// an unprotected (or protected) cache node. The server itself lives in
// internal/kvnode (see its package comment for the protocol and the
// concurrency model); this command adds flags, signal handling, and the
// HTTP observability sidecar.
//
// Connections are served concurrently: per-connection goroutines
// interleave at command granularity on the shared simulated memory
// (serialized by its exclusion gate), so an `inject` command lands between
// other clients' commands, never mid-access. `hrmsim chaos -attach`
// (internal/chaos) drives a running kvserve that way over one connection.
//
// Flags select the protection technique and software recovery response, so
// the same session can be run with -ecc secded to watch the errors
// disappear, or -ecc parity -recover parr to watch Par+R repair them from
// the backing copy.
//
// With -metrics-addr, an HTTP observability sidecar serves /metrics (the
// obsv snapshot, plain text or ?format=json — see OBSERVABILITY.md for
// every metric name), /healthz, and the standard net/http/pprof handlers
// under /debug/pprof/. The process shuts down gracefully on SIGINT or
// SIGTERM: the TCP listener closes, in-flight connections drain (bounded
// by -drain-timeout), and the sidecar stops.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hrmsim/internal/kvnode"
	"hrmsim/internal/obsv"
)

func main() {
	var cfg kvnode.Config
	cfg.BindFlags(flag.CommandLine)
	addr := flag.String("addr", "127.0.0.1:11222", "listen address")
	flag.IntVar(&cfg.MaxLine, "max-line", kvnode.DefaultMaxLine, "protocol line length bound in bytes")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", 5*time.Second,
		"graceful-shutdown wait for in-flight connections")
	once := flag.Bool("once", false, "serve a single connection then exit (for scripted demos)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /healthz, and /debug/pprof on this HTTP address (empty = disabled)")
	flag.Parse()
	if flag.NArg() > 0 {
		// Flag parsing stops at the first non-flag; what follows would be
		// dropped unread.
		log.Fatalf("kvserve: unexpected argument(s) %q (flags must come before positional arguments)", flag.Args())
	}

	srv, err := kvnode.New(cfg)
	if err != nil {
		log.Fatalf("kvserve: %v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("kvserve: %v", err)
	}
	log.Printf("kvserve: listening on %s (heap protection: %s, recovery: %s, %d keys)",
		ln.Addr(), cfg.ECC, orNone(cfg.Recover), srv.Keys())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stopMetrics := func() {}
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("kvserve: metrics listener: %v", err)
		}
		stopMetrics = obsv.ServeSidecar(mln, obsv.SidecarMux(obsv.Handler(srv.Registry())),
			func(err error) { log.Printf("kvserve: metrics: %v", err) })
		log.Printf("kvserve: metrics on http://%s/metrics", mln.Addr())
	}

	if *once {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatalf("kvserve: accept: %v", err)
		}
		srv.Handle(conn)
		_ = ln.Close()
	} else if err := srv.Serve(ctx, ln); err != nil {
		log.Printf("kvserve: %v", err)
	}
	log.Printf("kvserve: shutting down")
	stopMetrics()
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
