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
// (serialized by its exclusion gate), which is what lets a chaos
// experiment (`hrmsim chaos`, internal/chaos) inject faults into the live
// server while hundreds of clients are talking to it.
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
	addr := flag.String("addr", "127.0.0.1:11222", "listen address")
	keys := flag.Int("keys", 1024, "pre-populated key count")
	eccName := flag.String("ecc", "none", "heap protection: none|parity|secded|chipkill")
	seed := flag.Int64("seed", 1, "random seed")
	recoverMode := flag.String("recover", "",
		"software recovery on the heap: parr|parr-page|parr-escalate|retire (empty = none)")
	retireThreshold := flag.Uint64("retire-threshold", 2,
		"corrected errors per page before -recover retire replaces the frame")
	checkpoint := flag.Duration("checkpoint", 0,
		"virtual-time interval between heap checkpoints (0 = build-time checkpoint only; needs -recover)")
	maxLine := flag.Int("max-line", kvnode.DefaultMaxLine, "protocol line length bound in bytes")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second,
		"graceful-shutdown wait for in-flight connections")
	once := flag.Bool("once", false, "serve a single connection then exit (for scripted demos)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /healthz, and /debug/pprof on this HTTP address (empty = disabled)")
	flag.Parse()

	srv, err := kvnode.New(kvnode.Config{
		Keys:            *keys,
		ECC:             *eccName,
		Seed:            *seed,
		Recover:         *recoverMode,
		RetireThreshold: *retireThreshold,
		CheckpointEvery: *checkpoint,
		MaxLine:         *maxLine,
		DrainTimeout:    *drainTimeout,
	})
	if err != nil {
		log.Fatalf("kvserve: %v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("kvserve: %v", err)
	}
	log.Printf("kvserve: listening on %s (heap protection: %s, recovery: %s, %d keys)",
		ln.Addr(), *eccName, orNone(*recoverMode), *keys)

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
