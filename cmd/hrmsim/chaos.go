// The chaos subcommand: a seeded chaos run against a kvserve node —
// self-hosted in-process by default, or an external process via -attach.
// See internal/chaos for the run model and EXPERIMENTS.md ("Chaos: errors
// under live traffic") for a walkthrough.
package main

import (
	"flag"
	"fmt"
	"strings"

	"hrmsim/internal/chaos"
	"hrmsim/internal/kvnode"
	"hrmsim/internal/obsv"
)

func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	reg := obsv.NewRegistry()
	// The self-hosted node. With -attach the node is the server's, so its
	// flags are refused, except -seed, which also seeds the op stream.
	node := kvnode.Config{Registry: reg}
	nodeFlags := flag.NewFlagSet("node", flag.ContinueOnError)
	node.BindFlags(nodeFlags)
	nodeFlags.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
	attach := fs.String("attach", "",
		"drive an already-running kvserve at this `addr` over one TCP connection instead of self-hosting (node flags other than -seed are refused; injection is random)")

	run := chaos.Config{Registry: reg}
	fs.IntVar(&run.Steady, "steady", 5000, "operations in the steady baseline phase")
	fs.IntVar(&run.Chaos, "chaos", 10000, "operations in the fault-injection phase")
	fs.IntVar(&run.Recovery, "recovery", 5000, "operations in the recovery phase")
	fs.IntVar(&run.Injections, "injections", 32, "faults, evenly spaced over the chaos phase's operations (0 = op stream and wrong-value oracle only)")
	fs.Float64Var(&run.ReadFraction, "read-fraction", 0.9, "GET share of the op stream (0 = SETs only, apart from hot-mode read-backs)")
	injectMode := fs.String("inject-mode", "",
		"fault placement: hot (round-robin over popular keys' value words, each read back; the self-hosted default) | random (the node's own inject soft; the only mode with -attach)")
	jsonOut := fs.Bool("json", false, "emit the verdict as a JSON envelope")
	strict := fs.Bool("strict", false, "exit non-zero when the verdict is FAIL (output is still emitted)")
	if err := parseFlags(fs, args, 0); err != nil {
		return err
	}
	if *injectMode != "" && *injectMode != "hot" && *injectMode != "random" {
		return fmt.Errorf("chaos: unknown -inject-mode %q (hot|random)", *injectMode)
	}

	if *attach != "" {
		var refused []string
		fs.Visit(func(f *flag.Flag) {
			if nodeFlags.Lookup(f.Name) != nil && f.Name != "seed" {
				refused = append(refused, "-"+f.Name)
			}
		})
		if len(refused) > 0 { // Visit goes in lexical order
			return fmt.Errorf("chaos: %s configure a self-hosted node; with -attach the node is the server's", strings.Join(refused, ", "))
		}
		if *injectMode == "hot" {
			return fmt.Errorf("chaos: -inject-mode hot needs a self-hosted node; -attach injects with the node's inject command")
		}
		conn, err := chaos.Dial(*attach)
		if err != nil {
			return fmt.Errorf("attaching to %s: %w", *attach, err)
		}
		defer conn.Close()
		run.Do = conn.Do
	} else {
		srv, err := kvnode.New(node)
		if err != nil {
			return err
		}
		run.Do = func(line string) (string, error) { return srv.Dispatch(line), nil }
		if *injectMode != "random" {
			if run.Injector, err = chaos.NewLocalInjector(srv, "hot", nil, node.Seed); err != nil {
				return err
			}
		}
	}
	run.Seed = node.Seed

	verdict, err := chaos.Run(run)
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
