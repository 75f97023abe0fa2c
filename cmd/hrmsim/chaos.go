// The chaos subcommand: a live-traffic chaos experiment against a kvserve
// node — self-hosted in-process by default, or an external process via
// -attach. See internal/chaos for the experiment model and EXPERIMENTS.md
// ("Chaos: errors under live traffic") for a walkthrough.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hrmsim/internal/chaos"
	"hrmsim/internal/kvnode"
	"hrmsim/internal/obsv"
)

func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	// Node (self-hosted mode; ignored with -attach).
	eccName := fs.String("ecc", "none", "heap protection of the self-hosted node: none|parity|secded|chipkill")
	recoverMode := fs.String("recover", "",
		"software recovery of the self-hosted node: parr|parr-page|parr-escalate|retire (empty = none)")
	retireThreshold := fs.Uint64("retire-threshold", 2,
		"corrected errors per page before -recover retire replaces the frame")
	checkpoint := fs.Duration("checkpoint", 0,
		"virtual-time interval between heap checkpoints of the self-hosted node (needs -recover)")
	keys := fs.Int("keys", 1024, "working-set size (must match the server's -keys with -attach)")
	attach := fs.String("attach", "",
		"drive an already-running kvserve at this address instead of self-hosting (injection uses the protocol's `inject soft`)")

	// Load profile.
	conns := fs.Int("conns", 32, "concurrent load connections")
	qps := fs.Float64("qps", 0, "aggregate target ops/s (0 = closed loop)")
	readFraction := fs.Float64("read-fraction", 0.9, "GET share of the op mix")
	zipfS := fs.Float64("zipf-s", 1.1, "Zipf key-popularity exponent (> 1)")
	valueSize := fs.Int("value-size", 64, "value size in bytes (must match the server with -attach)")
	opTimeout := fs.Duration("op-timeout", 2*time.Second, "per-op round-trip deadline")

	// Experiment shape.
	steady := fs.Duration("steady", 2*time.Second, "steady-state baseline phase length")
	chaosDur := fs.Duration("chaos", 3*time.Second, "fault-injection phase length")
	recoveryDur := fs.Duration("recovery", 2*time.Second, "recovery observation phase length")
	sampleEvery := fs.Duration("sample-every", 50*time.Millisecond, "probe sample cadence")
	injections := fs.Int("injections", 32, "faults injected across the chaos phase")
	injectMode := fs.String("inject-mode", "hot",
		"self-hosted fault placement: hot (round-robin over popular keys' value words) | random")

	// Objectives.
	p50SLO := fs.Float64("p50-slo-us", 50_000, "steady-state p50 latency objective (µs)")
	p99SLO := fs.Float64("p99-slo-us", 200_000, "steady-state p99 latency objective (µs)")
	expectRecovery := fs.Bool("expect-recovery", false,
		"require recovery activity during chaos+recovery (defaults on when -recover is set)")

	seed := fs.Int64("seed", 1, "experiment seed (node population, load mix, injection placement)")
	jsonOut := fs.Bool("json", false, "emit the verdict as a JSON envelope")
	strict := fs.Bool("strict", false, "exit non-zero when the verdict is FAIL (output is still emitted)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obsv.NewRegistry()
	addr := *attach
	var injector chaos.Injector
	probeInjected := false

	// Self-hosted mode: run the kvnode in-process on a loopback port so
	// the whole experiment is one seeded command.
	if *attach == "" {
		srv, err := kvnode.New(kvnode.Config{
			Keys:            *keys,
			ECC:             *eccName,
			Seed:            *seed,
			Recover:         *recoverMode,
			RetireThreshold: *retireThreshold,
			CheckpointEvery: *checkpoint,
			Registry:        reg,
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srvCtx, stopSrv := context.WithCancel(context.Background())
		srvDone := make(chan error, 1)
		go func() { srvDone <- srv.Serve(srvCtx, ln) }()
		defer func() {
			stopSrv()
			<-srvDone
		}()
		addr = ln.Addr().String()

		li, err := chaos.NewLocalInjector(srv, *injectMode, nil, *seed)
		if err != nil {
			return err
		}
		injector = li
		probeInjected = *injectMode == "hot"
		if *recoverMode != "" {
			*expectRecovery = true
		}
	} else {
		ri, err := chaos.NewRemoteInjector(addr)
		if err != nil {
			return fmt.Errorf("attaching to %s: %w", addr, err)
		}
		defer ri.Close()
		injector = ri
	}

	gen, err := chaos.NewGenerator(chaos.GenConfig{
		Addr:         addr,
		Conns:        *conns,
		QPS:          *qps,
		Keys:         *keys,
		ValueSize:    *valueSize,
		ReadFraction: *readFraction,
		ZipfS:        *zipfS,
		Seed:         *seed,
		OpTimeout:    *opTimeout,
		Registry:     reg,
	})
	if err != nil {
		return err
	}
	exp, err := chaos.NewExperiment(chaos.ExperimentConfig{
		Name:          experimentName(*eccName, *recoverMode, *attach),
		Addr:          addr,
		Steady:        *steady,
		Chaos:         *chaosDur,
		Recovery:      *recoveryDur,
		SampleEvery:   *sampleEvery,
		Injections:    *injections,
		Injector:      injector,
		ProbeInjected: probeInjected,
		SLOs:          chaos.DefaultSLOs(*p50SLO, *p99SLO, *expectRecovery),
		Generator:     gen,
		Registry:      reg,
		Seed:          *seed,
	})
	if err != nil {
		return err
	}

	verdict, err := exp.Run(ctx)
	if err != nil {
		return err
	}
	if *jsonOut {
		snap := reg.Snapshot()
		if err := emitJSON(envelope{Command: "chaos", Result: verdict, Metrics: &snap}); err != nil {
			return err
		}
	} else {
		fmt.Print(verdict.Render())
	}
	if *strict && !verdict.Pass {
		return fmt.Errorf("chaos: verdict FAIL (-strict)")
	}
	return nil
}

// experimentName derives the verdict label from the configuration.
func experimentName(eccName, recoverMode, attach string) string {
	if attach != "" {
		return "kvserve-attached"
	}
	name := "kvserve-" + eccName
	if recoverMode != "" {
		name += "+" + recoverMode
	}
	return name
}
