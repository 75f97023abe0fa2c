package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"hrmsim"
	"hrmsim/internal/core"
	"hrmsim/internal/evtrace"
	"hrmsim/internal/obsv"
	"hrmsim/internal/textplot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hrmsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("a subcommand is required")
	}
	switch args[0] {
	case "characterize":
		return cmdCharacterize(args[1:])
	case "merge":
		return cmdMerge(args[1:])
	case "status":
		return cmdStatus(args[1:])
	case "profile":
		return cmdProfile(args[1:])
	case "designspace":
		return cmdDesignSpace(args[1:])
	case "plan":
		return cmdPlan(args[1:])
	case "tolerable":
		return cmdTolerable(args[1:])
	case "lifetime":
		return cmdLifetime(args[1:])
	case "chaos":
		return cmdChaos(args[1:])
	case "tables":
		return cmdTables(args[1:])
	case "traceview":
		return cmdTraceview(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `hrmsim — application memory error vulnerability & heterogeneous-reliability memory (DSN'14 reproduction)

Subcommands:
  characterize  run an error-injection campaign against an application
                (whole, one shard of it, or as a multi-process coordinator)
  merge         merge a directory of shard journals into one campaign result
  status        render the live (or final) fleet view from a campaign
                directory's shard heartbeat records
  profile       measure safe ratios and data recoverability
  designspace   evaluate the paper's five design points (Table 6)
  plan          search for the cheapest design meeting an availability target
  tolerable     tolerable error rates per availability target (Fig. 8)
  lifetime      simulate continuous operation under an error arrival process
  chaos         run a live-traffic chaos experiment against a kvserve node
                (steady → chaos → recovery, SLO probes, Pass/Fail verdict)
  tables        regenerate the paper's tables and figures
  traceview     inspect a JSONL event trace (per-trial timelines + stats)

Common flags:
  -json         emit one machine-readable JSON document (schema: OBSERVABILITY.md)
  -progress     report live trial completion on stderr (characterize, tables)

Run 'hrmsim <subcommand> -h' for flags.`)
}

// progressFunc returns a core campaign Progress hook that rewrites one
// stderr status line — done/total plus the live wall-clock trial rate
// and projected time remaining — throttled to 5% steps so heavy
// campaigns are not slowed by terminal writes. Core serializes the
// calls. The Total (and hence the ETA) is planner-aware: under an
// adaptive plan it is the planner's current trial budget — the next CI
// evaluation boundary — so the line carries an "adaptive" marker while
// the plan is still open-ended and the budget can grow.
func progressFunc(label string) func(hrmsim.ProgressInfo) {
	last := -1
	return func(p hrmsim.ProgressInfo) {
		step := p.Total / 20
		if step == 0 {
			step = 1
		}
		if p.Done != p.Total && p.Done/step == last {
			return
		}
		last = p.Done / step
		marker := ""
		if p.Adaptive {
			marker = " (adaptive)"
		}
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d trials (%d%%) | %.1f trials/s | ETA %s%s",
			label, p.Done, p.Total, 100*p.Done/p.Total,
			p.TrialsPerSec, p.ETA.Round(time.Second), marker)
		if p.Done == p.Total && !p.Adaptive {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// sizeFlag parses a workload size.
func sizeFlag(s string) (hrmsim.WorkloadSize, error) {
	switch s {
	case "small":
		return hrmsim.SizeSmall, nil
	case "medium":
		return hrmsim.SizeMedium, nil
	case "large":
		return hrmsim.SizeLarge, nil
	default:
		return 0, fmt.Errorf("unknown size %q (small|medium|large)", s)
	}
}

func cmdCharacterize(args []string) error {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	app := fs.String("app", "websearch", "application: websearch|kvstore|graphmine")
	errType := fs.String("error", "soft-1bit", "error type: soft-1bit|hard-1bit|hard-2bit")
	region := fs.String("region", "", "region: private|heap|stack (empty = all)")
	trials := fs.Int("trials", 400, "injection trials (with -target-ci: the hard trial budget)")
	targetCI := fs.Float64("target-ci", 0, "adaptive stopping: end the campaign once the 90% Wilson CI half-width of the crash probability is at most this (e.g. 0.02 for ±2 points; 0 = run exactly -trials); deterministic and resumable like fixed campaigns, but incompatible with -shard/-coordinator")
	minTrials := fs.Int("min-trials", 0, "adaptive stopping: never stop before this many trials (requires -target-ci; 0 = the default 30)")
	maxTrials := fs.Int("max-trials", 0, "adaptive stopping: trial budget cap (requires -target-ci; 0 = -trials)")
	seed := fs.Int64("seed", 1, "random seed")
	size := fs.String("size", "medium", "workload size: small|medium|large")
	parallelism := fs.Int("parallelism", 0, "concurrent trial workers (0 = GOMAXPROCS); results are identical at any value")
	jsonOut := fs.Bool("json", false, "emit the result as JSON (schema: OBSERVABILITY.md)")
	progress := fs.Bool("progress", false, "report live trial completion on stderr")
	traceFile := fs.String("trace", "", "write the per-trial event trace to this file (schema: OBSERVABILITY.md)")
	traceFormat := fs.String("trace-format", "jsonl", "event trace format: jsonl|chrome (chrome loads in ui.perfetto.dev)")
	journalPath := fs.String("journal", "", "append one flushed JSONL record per finished trial to this file, so an interrupted campaign can be resumed with -resume (schema: OBSERVABILITY.md)")
	resumePath := fs.String("resume", "", "skip trials already recorded in this journal (typically the same file as -journal); the merged result is bit-identical to an uninterrupted run")
	trialTimeout := fs.Duration("trial-timeout", 0, "abort any trial exceeding this wall-clock deadline, recording it as aborted (0 = none)")
	trialOpBudget := fs.Int64("trial-op-budget", 0, "abort any trial exceeding this many simulated memory operations after injection (0 = none)")
	shardFlag := fs.String("shard", "", "run only shard i of N of the campaign's trials, given as \"i/N\" (i in [0,N)); the journal stays merge-compatible with the sibling shards (SHARDING.md)")
	manifestPath := fs.String("manifest", "", "write the shard manifest (campaign identity + config hash + trial range) to this file after the run; requires -journal (default with -shard: derived from the journal path)")
	coordinator := fs.Bool("coordinator", false, "coordinator mode: spawn -shards local worker processes, supervise them (straggler warnings, crashed-shard respawn with -resume), and merge their journals (SHARDING.md)")
	shardCount := fs.Int("shards", 0, "number of shard worker processes to spawn (coordinator mode)")
	shardDir := fs.String("shard-dir", "", "directory for shard journals and manifests (coordinator mode; default: a fresh temporary directory, removed on success)")
	stragglerAfter := fs.Duration("straggler-after", 30*time.Second, "warn when a running shard's heartbeat (or, lacking one, its journal) has not advanced for this long (coordinator mode; 0 = off)")
	shardRespawns := fs.Int("shard-respawns", 2, "respawn a crashed shard, resuming its journal, at most this many times (coordinator mode)")
	statusPath := fs.String("status", "", "write a shard status/heartbeat record (JSON, atomically replaced) to this file: an initial record, throttled per-trial refreshes, and a final record (schema: OBSERVABILITY.md; view with `hrmsim status`)")
	statusInterval := fs.Duration("status-interval", 0, "minimum interval between heartbeat refreshes (0 = the 1s default)")
	statusAddr := fs.String("status-addr", "", "serve the live fleet view on this HTTP address: /statusz, merged /metrics, /healthz, /debug/pprof (coordinator mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sz, err := sizeFlag(*size)
	if err != nil {
		return err
	}
	if *targetCI == 0 && (*minTrials != 0 || *maxTrials != 0) {
		return fmt.Errorf("-min-trials and -max-trials are adaptive guard rails and require -target-ci")
	}
	if *coordinator {
		if *shardFlag != "" {
			return fmt.Errorf("-coordinator and -shard are mutually exclusive (the coordinator assigns shards itself)")
		}
		if *targetCI != 0 {
			return fmt.Errorf("-target-ci cannot be combined with -coordinator: an adaptive plan needs the whole trial index space, but coordinator workers each own a shard of it — run adaptive campaigns as one process (see SHARDING.md)")
		}
		if *journalPath != "" || *resumePath != "" || *traceFile != "" || *statusPath != "" {
			return fmt.Errorf("-coordinator manages its own shard journals and status records; -journal, -resume, -trace, and -status apply to single-process runs")
		}
		if *shardCount < 1 {
			return fmt.Errorf("-coordinator requires -shards N with N >= 1")
		}
		return runCoordinatorCmd(coordinatorConfig{
			App:            *app,
			Error:          *errType,
			Region:         *region,
			Trials:         *trials,
			Seed:           *seed,
			Size:           *size,
			Parallelism:    *parallelism,
			TrialTimeout:   *trialTimeout,
			TrialOpBudget:  *trialOpBudget,
			Shards:         *shardCount,
			Dir:            *shardDir,
			StragglerAfter: *stragglerAfter,
			MaxRespawns:    *shardRespawns,
			StatusAddr:     *statusAddr,
		}, *jsonOut, *progress)
	}
	if *shardCount != 0 || *shardDir != "" {
		return fmt.Errorf("-shards and -shard-dir require -coordinator (use -shard i/N to run one shard directly)")
	}
	if *statusAddr != "" {
		return fmt.Errorf("-status-addr requires -coordinator (use -status to heartbeat a single-process or shard run)")
	}
	// SIGINT/SIGTERM cancel the campaign context: in-flight trials are
	// drained and the partial result (marked interrupted) still comes
	// out, journaled if -journal was given.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := hrmsim.CharacterizeConfig{
		App:           hrmsim.App(*app),
		Error:         hrmsim.ErrorType(*errType),
		Region:        hrmsim.Region(*region),
		Trials:        *trials,
		TargetCI:      *targetCI,
		MinTrials:     *minTrials,
		MaxTrials:     *maxTrials,
		Seed:          *seed,
		Size:          sz,
		Parallelism:   *parallelism,
		Context:       ctx,
		TrialTimeout:  *trialTimeout,
		TrialOpBudget: *trialOpBudget,
		JournalPath:   *journalPath,
		ResumePath:    *resumePath,
	}
	if *shardFlag != "" {
		if *targetCI != 0 {
			return fmt.Errorf("-target-ci cannot be combined with -shard: an adaptive plan needs the whole trial index space — run adaptive campaigns unsharded (see SHARDING.md)")
		}
		spec, err := core.ParseShardSpec(*shardFlag)
		if err != nil {
			return err
		}
		cfg.ShardIndex, cfg.ShardCount = spec.Index, spec.Count
		// A shard's artifact pair is journal + manifest; derive the
		// manifest path so `-shard i/N -journal f.jsonl` alone emits both.
		if *manifestPath == "" && *journalPath != "" {
			*manifestPath = core.ManifestPathFor(*journalPath)
		}
	}
	cfg.ManifestPath = *manifestPath
	cfg.StatusPath = *statusPath
	cfg.StatusInterval = *statusInterval
	if *progress {
		cfg.Progress = progressFunc("characterize")
	}
	var reg *obsv.Registry
	// The manifest and the status records embed metrics snapshots, so
	// runs writing either are instrumented even without -json.
	if *jsonOut || cfg.ManifestPath != "" || cfg.StatusPath != "" {
		reg = obsv.NewRegistry()
		cfg.Metrics = reg
	}
	// Tracing: -trace streams every trial's events to a file; -json
	// additionally arms the flight recorder, whose crash/incorrect
	// dumps ride along in the result envelope's "trace" field.
	var sinks []evtrace.Sink
	var recorder *evtrace.Recorder
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("creating trace file: %w", err)
		}
		switch *traceFormat {
		case "jsonl":
			sinks = append(sinks, evtrace.NewJSONLWriter(f))
		case "chrome":
			sinks = append(sinks, evtrace.NewChromeWriter(f))
		default:
			_ = f.Close()
			return fmt.Errorf("unknown trace format %q (jsonl|chrome)", *traceFormat)
		}
	}
	if *jsonOut {
		recorder = evtrace.NewRecorder(0, 0)
		sinks = append(sinks, recorder)
	}
	if len(sinks) > 0 {
		cfg.Tracer = evtrace.New(evtrace.Options{Metrics: reg}, sinks...)
	}
	c, err := hrmsim.Characterize(cfg)
	if cerr := cfg.Tracer.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if c.Interrupted {
		hint := ""
		if *journalPath != "" {
			hint = fmt.Sprintf("; resume with -resume %s", *journalPath)
		}
		fmt.Fprintf(os.Stderr, "characterize: interrupted — %d/%d trials have results%s\n",
			c.Completed+c.Aborted+c.Resumed, c.Trials, hint)
	}
	if *jsonOut {
		snap := reg.Snapshot()
		return emitJSON(envelope{Command: "characterize", Interrupted: c.Interrupted,
			Result: toCharacterizeJSON(c), Metrics: &snap, Trace: toTraceJSON(recorder), Shard: c.Shard})
	}
	printCharacterization(c)
	return nil
}

// printCharacterization renders a campaign result as text — shared by
// characterize (whole or one shard), merge, and coordinator runs.
func printCharacterization(c *hrmsim.Characterization) {
	regionLabel := string(c.Region)
	if regionLabel == "" {
		regionLabel = "all regions"
	}
	fmt.Printf("Characterization: %s, %s errors, %s, %d trials\n",
		c.App, c.Error, regionLabel, c.Trials)
	if c.Shard != nil {
		fmt.Printf("  shard %d/%d: trials [%d,%d) — merge with the sibling shards for campaign statistics\n",
			c.Shard.Index, c.Shard.Count, c.Shard.TrialLo, c.Shard.TrialHi)
	}
	if c.TargetCI > 0 {
		saved := ""
		if c.TrialsSaved > 0 {
			saved = fmt.Sprintf(" — %d of the %d-trial budget saved", c.TrialsSaved, c.Trials)
		}
		fmt.Printf("  adaptive plan: target CI half-width %.3g, stopped at %d trials%s\n",
			c.TargetCI, c.Planned, saved)
	}
	fmt.Println()
	fmt.Printf("  crash probability:     %.2f%%  (90%% CI [%.2f%%, %.2f%%])\n",
		c.CrashProbability*100, c.CrashCILow*100, c.CrashCIHigh*100)
	fmt.Printf("  tolerated (masked):    %.2f%%\n", c.ToleratedProbability*100)
	fmt.Printf("  incorrect per billion: %.3g  (worst trial %.3g)\n\n",
		c.IncorrectPerBillion, c.MaxIncorrectPerBillion)

	var keys []string
	for k := range c.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var bars []textplot.Bar
	for _, k := range keys {
		bars = append(bars, textplot.Bar{Label: k, Value: float64(c.Outcomes[k])})
	}
	fmt.Println(textplot.BarChart("Outcome taxonomy (trials)", bars, 40, false))
}

// cmdMerge merges a directory of shard journals (written by
// `characterize -shard i/N` workers) into one campaign result,
// bit-identical to the single-process run (see SHARDING.md).
func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	dir := fs.String("dir", "", "shard directory holding the *.manifest.json + journal pairs (may also be given as the positional argument)")
	jsonOut := fs.Bool("json", false, "emit the result as JSON (schema: OBSERVABILITY.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" && fs.NArg() == 1 {
		*dir = fs.Arg(0)
	}
	if *dir == "" {
		return fmt.Errorf("merge: a shard directory is required (-dir or positional)")
	}
	var reg *obsv.Registry
	mcfg := hrmsim.MergeConfig{Dir: *dir}
	if *jsonOut {
		reg = obsv.NewRegistry()
		mcfg.Metrics = reg
	}
	c, info, err := hrmsim.MergeShards(mcfg)
	if err != nil {
		return err
	}
	if c.Interrupted {
		fmt.Fprintf(os.Stderr, "merge: campaign incomplete — %d of %d trials have no record in any shard (respawn or resume the missing shards and re-merge)\n",
			info.Missing, c.Trials)
	}
	if *jsonOut {
		snap := reg.Snapshot()
		return emitJSON(envelope{Command: "merge", Interrupted: c.Interrupted,
			Result: toCharacterizeJSON(c), Metrics: &snap, Merged: info})
	}
	fmt.Printf("Merged %d shards (config %.12s…): %d trial records", len(info.Shards), info.ConfigHash, info.Records)
	if info.Duplicates > 0 {
		fmt.Printf(", %d duplicates dropped (keep-first)", info.Duplicates)
	}
	if info.Missing > 0 {
		fmt.Printf(", %d missing", info.Missing)
	}
	fmt.Print("\n\n")
	printCharacterization(c)
	return nil
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	app := fs.String("app", "websearch", "application: websearch|kvstore|graphmine")
	watch := fs.Int("watchpoints", 600, "sampled addresses")
	seed := fs.Int64("seed", 1, "random seed")
	size := fs.String("size", "medium", "workload size: small|medium|large")
	jsonOut := fs.Bool("json", false, "emit the result as JSON (schema: OBSERVABILITY.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sz, err := sizeFlag(*size)
	if err != nil {
		return err
	}
	rep, err := hrmsim.AccessProfile(hrmsim.AccessProfileConfig{
		App:         hrmsim.App(*app),
		Watchpoints: *watch,
		Seed:        *seed,
		Size:        sz,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON(envelope{Command: "profile", Result: rep})
	}
	fmt.Printf("Access profile: %s (%.1f virtual minutes observed)\n\n", rep.App, rep.WindowMinutes)
	t := &textplot.Table{
		Headers: []string{"Region", "Used", "Watchpoints", "Mean safe ratio", "Implicit rec.", "Explicit rec."},
	}
	for _, r := range rep.Regions {
		t.AddRow(r.Region,
			fmt.Sprintf("%d B", r.UsedBytes),
			fmt.Sprintf("%d", r.Watchpoints),
			fmt.Sprintf("%.2f", r.MeanSafeRatio),
			fmt.Sprintf("%.0f%%", r.ImplicitRecoverable*100),
			fmt.Sprintf("%.0f%%", r.ExplicitRecoverable*100))
	}
	fmt.Println(t.Render())
	return nil
}

func cmdDesignSpace(args []string) error {
	fs := flag.NewFlagSet("designspace", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the result as JSON (schema: OBSERVABILITY.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := hrmsim.EvaluateTable6(hrmsim.PaperWebSearchVulnerability())
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON(envelope{Command: "designspace", Result: designspaceJSON{Rows: rows}})
	}
	fmt.Println(renderDesignRows("Table 6 design points (paper WebSearch inputs)", rows))
	return nil
}

// renderDesignRows renders design evaluations as a table.
func renderDesignRows(title string, rows []hrmsim.DesignRow) string {
	t := &textplot.Table{
		Title: title,
		Headers: []string{"Configuration", "Mem save %", "Server save %",
			"Crashes/mo", "Availability", "Incorrect/M", "Meets 99.90%"},
	}
	for _, r := range rows {
		meets := "no"
		if r.MeetsTarget {
			meets = "yes"
		}
		mem := fmt.Sprintf("%.1f", r.MemorySavings*100)
		srv := fmt.Sprintf("%.1f", r.ServerSavings*100)
		if r.MemorySavingsHi-r.MemorySavingsLo > 1e-9 {
			mem = fmt.Sprintf("%.1f (%.1f-%.1f)", r.MemorySavings*100, r.MemorySavingsLo*100, r.MemorySavingsHi*100)
			srv = fmt.Sprintf("%.1f (%.1f-%.1f)", r.ServerSavings*100, r.ServerSavingsLo*100, r.ServerSavingsHi*100)
		}
		t.AddRow(r.Name, mem, srv,
			fmt.Sprintf("%.1f", r.CrashesPerMonth),
			fmt.Sprintf("%.2f%%", r.Availability*100),
			fmt.Sprintf("%.1f", r.IncorrectPerMillion),
			meets)
	}
	return t.Render()
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	target := fs.Float64("target", 0.999, "single server availability target")
	errors := fs.Float64("errors", 2000, "memory errors per server per month")
	jsonOut := fs.Bool("json", false, "emit the result as JSON (schema: OBSERVABILITY.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := hrmsim.Plan(hrmsim.PlanConfig{
		Vulnerabilities:    hrmsim.PaperWebSearchVulnerability(),
		TargetAvailability: *target,
		ErrorsPerMonth:     *errors,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON(envelope{Command: "plan", Result: planJSON{
			TargetAvailability: *target,
			ErrorsPerMonth:     *errors,
			PlanResult:         res,
		}})
	}
	fmt.Printf("Design-space search: %d points considered, %d feasible at %.3f%% availability\n\n",
		res.Considered, res.Feasible, *target*100)
	fmt.Printf("Cheapest feasible design (server cost saving %.1f%%, availability %.3f%%, %.1f incorrect/M):\n",
		res.Best.ServerSavings*100, res.Best.Availability*100, res.Best.IncorrectPerMillion)
	var regions []string
	for r := range res.BestMapping {
		regions = append(regions, r)
	}
	sort.Strings(regions)
	for _, r := range regions {
		fmt.Printf("  %-8s -> %s\n", r, res.BestMapping[r])
	}
	return nil
}

func cmdTolerable(args []string) error {
	fs := flag.NewFlagSet("tolerable", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the result as JSON (schema: OBSERVABILITY.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	probs := hrmsim.PaperCrashProbabilities()
	targets := []float64{0.9999, 0.999, 0.99}
	out := tolerableJSON{Rows: []tolerableRowJSON{}}
	t := &textplot.Table{
		Title:   "Tolerable memory errors/month per availability target (Fig. 8)",
		Headers: []string{"Application", "Crash prob/error", "99.99%", "99.90%", "99.00%"},
	}
	for _, app := range []string{"WebSearch", "Memcached", "GraphLab"} {
		row := []string{app, fmt.Sprintf("%.2f%%", probs[app]*100)}
		jr := tolerableRowJSON{
			Application:      app,
			CrashProbability: probs[app],
			Targets:          []tolerableCellJSON{},
		}
		for _, target := range targets {
			tol, err := hrmsim.Tolerable(probs[app], target)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.0f", tol))
			jr.Targets = append(jr.Targets, tolerableCellJSON{
				AvailabilityTarget:      target,
				TolerableErrorsPerMonth: tol,
			})
		}
		t.AddRow(row...)
		out.Rows = append(out.Rows, jr)
	}
	if *jsonOut {
		return emitJSON(envelope{Command: "tolerable", Result: out})
	}
	fmt.Println(t.Render())
	return nil
}

func cmdTables(args []string) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	id := fs.String("t", "", "experiment ID (empty = all): "+
		fmt.Sprint(hrmsim.ExperimentIDs())+" and extensions "+fmt.Sprint(hrmsim.ExtensionIDs()))
	trials := fs.Int("trials", 400, "injection trials per campaign cell (with -target-ci: each cell's hard budget)")
	targetCI := fs.Float64("target-ci", 0, "stop each campaign cell once the 90% CI half-width on its crash probability reaches this target (0 = fixed -trials per cell)")
	seed := fs.Int64("seed", 1, "random seed")
	ext := fs.Bool("ext", false, "also run the extension experiments")
	jsonOut := fs.Bool("json", false, "emit the results as JSON (schema: OBSERVABILITY.md)")
	progress := fs.Bool("progress", false, "report live trial completion on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lcfg := hrmsim.LabConfig{Trials: *trials, TargetCI: *targetCI, Seed: *seed}
	if *progress {
		lcfg.Progress = progressFunc("tables")
	}
	lab, err := hrmsim.NewLab(lcfg)
	if err != nil {
		return err
	}
	ids := hrmsim.ExperimentIDs()
	if *ext {
		ids = append(ids, hrmsim.ExtensionIDs()...)
	}
	if *id != "" {
		ids = []string{*id}
	}
	out := tablesJSON{Experiments: []*hrmsim.ExperimentReport{}}
	for _, x := range ids {
		rep, err := lab.Run(x)
		if err != nil {
			return err
		}
		if *jsonOut {
			out.Experiments = append(out.Experiments, rep)
			continue
		}
		fmt.Printf("==== %s: %s ====\n\n%s\n", rep.ID, rep.Title, rep.Text)
		if len(rep.Comparisons) > 0 {
			fmt.Println("Paper vs measured:")
			for _, c := range rep.Comparisons {
				fmt.Printf("  - %s\n      paper:    %s\n      measured: %s\n", c.Metric, c.Paper, c.Measured)
				if c.Note != "" {
					fmt.Printf("      note:     %s\n", c.Note)
				}
			}
			fmt.Println()
		}
	}
	if *jsonOut {
		return emitJSON(envelope{Command: "tables", Result: out})
	}
	return nil
}

func cmdLifetime(args []string) error {
	fs := flag.NewFlagSet("lifetime", flag.ContinueOnError)
	protection := fs.String("protection", "none", "protection preset: none|parity+r|secded|secded+scrub")
	errors := fs.Float64("errors", 150000, "memory errors per month (amplified for the scaled memory)")
	soft := fs.Float64("soft", 1.0, "fraction of errors that are transient")
	hours := fs.Int("hours", 24, "simulated hours of operation")
	recovery := fs.Int("recovery", 10, "minutes of downtime per crash")
	seed := fs.Int64("seed", 1, "random seed")
	jsonOut := fs.Bool("json", false, "emit the result as JSON (schema: OBSERVABILITY.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := hrmsim.SimulateLifetime(hrmsim.LifetimeConfig{
		Protection:      hrmsim.Protection(*protection),
		ErrorsPerMonth:  *errors,
		SoftFraction:    *soft,
		Hours:           *hours,
		RecoveryMinutes: *recovery,
		Seed:            *seed,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON(envelope{Command: "lifetime", Result: lifetimeJSON{
			Protection:     *protection,
			ErrorsPerMonth: *errors,
			Hours:          *hours,
			LifetimeResult: res,
		}})
	}
	fmt.Printf("Lifetime simulation: websearch, %s protection, %.0f errors/month, %dh\n\n",
		*protection, *errors, *hours)
	fmt.Printf("  errors injected:       %d\n", res.ErrorsInjected)
	fmt.Printf("  crashes (reboots):     %d\n", res.Crashes)
	fmt.Printf("  downtime:              %.0f min\n", res.DowntimeMinutes)
	fmt.Printf("  availability:          %.3f%%\n", res.Availability*100)
	fmt.Printf("  requests served:       %d\n", res.Requests)
	fmt.Printf("  incorrect responses:   %d (%.1f per million)\n", res.Incorrect, res.IncorrectPerMillion)
	if res.ScrubPasses > 0 {
		fmt.Printf("  scrub passes:          %d (%d errors corrected by patrol scrub)\n",
			res.ScrubPasses, res.ScrubCorrected)
	}
	return nil
}
