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
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	reg := obsv.NewRegistry()
	// Node: self-hosted mode builds it; with -attach only -keys and
	// -seed matter (they also size and seed the load).
	node := kvnode.Config{Registry: reg}
	node.BindFlags(fs)
	attach := fs.String("attach", "",
		"drive an already-running kvserve at this `addr` instead of self-hosting (injection uses the protocol's inject soft command; -keys must match the server's)")

	load := chaos.GenConfig{Registry: reg}
	fs.IntVar(&load.Conns, "conns", 32, "concurrent load connections")
	fs.Float64Var(&load.QPS, "qps", 0, "aggregate target ops/s (0 = closed loop)")
	fs.Float64Var(&load.ReadFraction, "read-fraction", 0.9, "GET share of the op mix")
	fs.Float64Var(&load.ZipfS, "zipf-s", 1.1, "Zipf key-popularity exponent (> 1)")
	fs.IntVar(&load.ValueSize, "value-size", 64, "value size in bytes (must match the server with -attach)")
	fs.DurationVar(&load.OpTimeout, "op-timeout", 2*time.Second, "per-op round-trip deadline")

	exp := chaos.ExperimentConfig{Registry: reg}
	fs.DurationVar(&exp.Steady, "steady", 2*time.Second, "steady-state baseline phase length")
	fs.DurationVar(&exp.Chaos, "chaos", 3*time.Second, "fault-injection phase length")
	fs.DurationVar(&exp.Recovery, "recovery", 2*time.Second, "recovery observation phase length")
	fs.DurationVar(&exp.SampleEvery, "sample-every", 50*time.Millisecond, "probe sample cadence")
	fs.IntVar(&exp.Injections, "injections", 32, "faults injected across the chaos phase (0 = load and wrong-value oracle only)")
	injectMode := fs.String("inject-mode", "hot",
		"self-hosted fault placement: hot (round-robin over popular keys' value words) | random")

	p50SLO := fs.Float64("p50-slo-us", 50_000, "steady-state p50 latency objective (µs)")
	p99SLO := fs.Float64("p99-slo-us", 200_000, "steady-state p99 latency objective (µs)")
	expectRecovery := fs.Bool("expect-recovery", false,
		"require recovery activity during chaos+recovery (defaults on when -recover is set)")
	jsonOut := fs.Bool("json", false, "emit the verdict as a JSON envelope")
	strict := fs.Bool("strict", false, "exit non-zero when the verdict is FAIL (output is still emitted)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	exp.Addr = *attach
	// Self-hosted mode: run the kvnode in-process on a loopback port so
	// the whole experiment is one seeded command.
	if *attach == "" {
		srv, err := kvnode.New(node)
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
		exp.Addr = ln.Addr().String()

		li, err := chaos.NewLocalInjector(srv, *injectMode, nil, node.Seed)
		if err != nil {
			return err
		}
		exp.Injector = li
		exp.ProbeInjected = *injectMode == "hot"
		if node.Recover != "" {
			*expectRecovery = true
		}
	} else {
		ri, err := chaos.NewRemoteInjector(exp.Addr)
		if err != nil {
			return fmt.Errorf("attaching to %s: %w", exp.Addr, err)
		}
		defer ri.Close()
		exp.Injector = ri
	}

	load.Addr, load.Keys, load.Seed = exp.Addr, node.Keys, node.Seed
	gen, err := chaos.NewGenerator(load)
	if err != nil {
		return err
	}
	exp.Name = experimentName(node.ECC, node.Recover, *attach)
	exp.SLOs = chaos.DefaultSLOs(*p50SLO, *p99SLO, *expectRecovery)
	exp.Generator = gen
	exp.Seed = node.Seed
	experiment, err := chaos.NewExperiment(exp)
	if err != nil {
		return err
	}

	verdict, err := experiment.Run(ctx)
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
