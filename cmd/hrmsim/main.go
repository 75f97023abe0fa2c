package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hrmsim"
	"hrmsim/internal/core"
	"hrmsim/internal/obsv"
	"hrmsim/internal/textplot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		// The facade's errors already carry the prefix.
		msg := err.Error()
		if !strings.HasPrefix(msg, "hrmsim: ") {
			msg = "hrmsim: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
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
	case "explain":
		return cmdExplain(args[1:])
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
                (whole, or one shard of it: -shard i/N)
  merge         merge a directory of shard journals into one campaign result
  status        render the live (or final) fleet view from a campaign
                directory's shard journals
  profile       measure safe ratios and data recoverability
  designspace   evaluate the paper's five design points (Table 6)
  plan          search for the cheapest design meeting an availability target
  tolerable     tolerable error rates per availability target (Fig. 8)
  lifetime      simulate continuous operation under an error arrival process
  chaos         run a seeded chaos experiment against a kvserve node
                (steady → chaos → recovery op stream, Pass/Fail verdict)
  tables        regenerate the paper's tables and figures
  explain       re-run one journaled trial and print its causal chain:
                explain <journal> <trial>

Common flags:
  -json         emit one machine-readable JSON document (schema: OBSERVABILITY.md)
  -progress     report live trial completion on stderr (characterize, tables)

Run 'hrmsim <subcommand> -h' for flags.`)
}

// progressFunc returns a campaign Progress hook that rewrites one
// stderr status line — done/total plus the live wall-clock trial rate
// and projected time remaining — throttled to 5% steps so heavy
// campaigns are not slowed by terminal writes. Core serializes the
// calls. The Total (and hence the ETA) is plan-aware: under an
// adaptive plan it is the next CI evaluation boundary, so the line
// carries an "adaptive" marker while the plan is still open-ended and
// the total can grow. The run's final record ends the line.
func progressFunc(label string) func(hrmsim.ProgressInfo) {
	last := -1
	return func(p hrmsim.ProgressInfo) {
		step := max(p.Total/20, 1)
		if p.Running && p.Done != p.Total && p.Done/step == last {
			return
		}
		last = p.Done / step
		pct := 100
		if p.Total > 0 { // an empty shard owns no trials
			pct = 100 * p.Done / p.Total
		}
		marker := ""
		if p.Adaptive && !p.PlanFinal {
			marker = " (adaptive)"
		}
		eta := time.Duration(p.EtaSeconds * float64(time.Second)).Round(time.Second)
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d trials (%d%%) | %.1f trials/s | ETA %s%s",
			label, p.Done, p.Total, pct, p.TrialsPerSec, eta, marker)
		if !p.Running {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// parseFlags parses a subcommand's flags and refuses any positional
// argument past the first maxArgs, naming what it refuses. Flag parsing
// stops at the first argument that is not a flag, so without this check
// a stray word would silently drop every flag after it.
func parseFlags(fs *flag.FlagSet, args []string, maxArgs int) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > maxArgs {
		return unexpectedArgs(fs.Name(), fs.Args()[maxArgs:])
	}
	return nil
}

// unexpectedArgs is the error refusing a command's stray arguments.
func unexpectedArgs(cmd string, stray []string) error {
	quoted := make([]string, len(stray))
	for i, a := range stray {
		quoted[i] = strconv.Quote(a)
	}
	return fmt.Errorf("%s: unexpected argument(s) %s (flags must come before positional arguments)",
		cmd, strings.Join(quoted, " "))
}

// dirFlagOrArg parses the flags of a command that reads one directory,
// given either as -dir or as the one positional argument, not both; what
// names the directory in the error when neither is given.
func dirFlagOrArg(fs *flag.FlagSet, args []string, dir *string, what string) error {
	if err := parseFlags(fs, args, 1); err != nil {
		return err
	}
	switch {
	case fs.NArg() == 1 && *dir != "":
		return fmt.Errorf("%s: unexpected argument(s) %q beside -dir %s", fs.Name(), fs.Arg(0), *dir)
	case fs.NArg() == 1:
		*dir = fs.Arg(0)
	case *dir == "":
		return fmt.Errorf("%s: a %s is required (-dir or positional)", fs.Name(), what)
	}
	return nil
}

// sizeValue is the -size flag: a hrmsim.WorkloadSize spelled
// small|medium|large.
type sizeValue hrmsim.WorkloadSize

var sizeNames = [...]string{hrmsim.SizeSmall: "small", hrmsim.SizeMedium: "medium", hrmsim.SizeLarge: "large"}

func (v *sizeValue) String() string {
	if v == nil || *v < 0 || int(*v) >= len(sizeNames) {
		return ""
	}
	return sizeNames[*v]
}

func (v *sizeValue) Set(s string) error {
	for i, name := range sizeNames {
		if name == s {
			*v = sizeValue(i)
			return nil
		}
	}
	return fmt.Errorf("unknown size %q (small|medium|large)", s)
}

// shardValue is the -shard flag: "i/N" held as the config's
// ShardIndex/ShardCount pair.
type shardValue struct{ cfg *hrmsim.CharacterizeConfig }

func (v shardValue) String() string {
	if v.cfg == nil || v.cfg.ShardCount == 0 {
		return ""
	}
	return fmt.Sprintf("%d/%d", v.cfg.ShardIndex, v.cfg.ShardCount)
}

func (v shardValue) Set(s string) error {
	spec, err := core.ParseShardSpec(s)
	if err != nil {
		return err
	}
	v.cfg.ShardIndex, v.cfg.ShardCount = spec.Index, spec.Count
	return nil
}

// characterizeCmd is a parsed `characterize` command line.
type characterizeCmd struct {
	jsonOut, progress bool
	cfg               hrmsim.CharacterizeConfig
}

// parseCharacterize binds, parses and cross-checks the characterize flags.
func parseCharacterize(args []string) (*characterizeCmd, error) {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	c := &characterizeCmd{}
	cfg := &c.cfg
	fs.StringVar((*string)(&cfg.App), "app", "websearch", "application: websearch|kvstore|graphmine")
	fs.StringVar((*string)(&cfg.Error), "error", "soft-1bit", "error type: soft-1bit|hard-1bit|hard-2bit")
	fs.StringVar((*string)(&cfg.Region), "region", "", "region: private|heap|stack (empty = all)")
	fs.IntVar(&cfg.Trials, "trials", 400, "injection trials (with -target-ci: the hard trial budget)")
	fs.Float64Var(&cfg.TargetCI, "target-ci", 0, "adaptive stopping: end the campaign once the 90% Wilson CI half-width of the crash probability is at most this (e.g. 0.02 for ±2 points; 0 = run exactly -trials); deterministic and resumable like fixed campaigns, but incompatible with -shard")
	fs.IntVar(&cfg.MinTrials, "min-trials", 0, "adaptive stopping: never stop before this many trials (requires -target-ci; 0 = the default 30)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	cfg.Size = hrmsim.SizeMedium
	fs.Var((*sizeValue)(&cfg.Size), "size", "workload `size`: small|medium|large")
	fs.IntVar(&cfg.Parallelism, "parallelism", 0, "concurrent trial workers (0 = GOMAXPROCS); results are identical at any value")
	fs.Var(shardValue{cfg}, "shard", "run only shard i of N of the campaign's trials, given as `i/N` (i in [0,N)); the journal stays merge-compatible with the sibling shards (SHARDING.md)")
	fs.StringVar(&cfg.JournalPath, "journal", "", "append one flushed JSONL record per finished trial to this file, so an interrupted campaign can be resumed with -resume, and a trailer line when the run ends; hrmsim status and hrmsim merge read it (schema: OBSERVABILITY.md)")
	fs.StringVar(&cfg.ResumePath, "resume", "", "skip trials already recorded in this journal (typically the same file as -journal); the merged result is bit-identical to an uninterrupted run")
	fs.BoolVar(&c.jsonOut, "json", false, "emit the result as JSON (schema: OBSERVABILITY.md)")
	fs.BoolVar(&c.progress, "progress", false, "report live trial completion on stderr")
	if err := parseFlags(fs, args, 0); err != nil {
		return nil, err
	}
	if cfg.TargetCI == 0 && cfg.MinTrials != 0 {
		return nil, fmt.Errorf("-min-trials is an adaptive guard rail and requires -target-ci")
	}
	return c, nil
}

func cmdCharacterize(args []string) error {
	c, err := parseCharacterize(args)
	if err != nil {
		return err
	}
	// SIGINT/SIGTERM cancel the campaign context: in-flight trials are
	// drained and the partial result (marked interrupted) still comes
	// out, journaled if -journal was given.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := c.cfg
	cfg.Context = ctx
	if c.progress {
		cfg.Progress = progressFunc("characterize")
	}
	// The journal's trailer embeds a metrics snapshot, so journaled
	// runs are instrumented even without -json.
	if c.jsonOut || cfg.JournalPath != "" {
		cfg.Metrics = obsv.NewRegistry()
	}
	res, err := hrmsim.Characterize(cfg)
	if err != nil {
		return err
	}
	if res.Interrupted {
		hint := ""
		if cfg.JournalPath != "" {
			hint = fmt.Sprintf("; resume with -resume %s", cfg.JournalPath)
		}
		fmt.Fprintf(os.Stderr, "characterize: interrupted — %d/%d trials have results%s\n",
			res.Completed+res.Aborted+res.Resumed, res.Trials, hint)
	}
	if c.jsonOut {
		snap := cfg.Metrics.Snapshot()
		return emitJSON(envelope{Command: "characterize", Interrupted: res.Interrupted,
			Result: toCharacterizeJSON(res), Metrics: &snap, Shard: res.Shard})
	}
	printCharacterization(res)
	return nil
}

// printCharacterization renders a campaign result as text — shared by
// characterize (whole or one shard) and merge.
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
	if c.Completed == 0 {
		// An empty shard, or a run interrupted before its first trial
		// completed: there is no estimate to print.
		fmt.Print("  no completed trials\n\n")
	} else {
		fmt.Printf("  crash probability:     %.2f%%  (90%% CI [%.2f%%, %.2f%%])\n",
			c.CrashProbability*100, c.CrashCILow*100, c.CrashCIHigh*100)
		fmt.Printf("  tolerated (masked):    %.2f%%\n", c.ToleratedProbability*100)
		fmt.Printf("  incorrect per billion: %.3g  (worst trial %.3g)\n\n",
			c.IncorrectPerBillion, c.MaxIncorrectPerBillion)
	}

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
	dir := fs.String("dir", "", "shard directory holding the shards' *.jsonl journals; those ending in a trailer are merged (may also be given as the positional argument)")
	jsonOut := fs.Bool("json", false, "emit the result as JSON (schema: OBSERVABILITY.md)")
	if err := dirFlagOrArg(fs, args, dir, "shard directory"); err != nil {
		return err
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
		fmt.Fprintf(os.Stderr, "merge: campaign incomplete — %d of %d trials have no record in any finished shard (re-run the missing shards with -resume and re-merge)\n",
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

// cmdExplain re-runs one journaled trial and prints its causal chain
// (OBSERVABILITY.md, "Explaining a trial").
func cmdExplain(args []string) error {
	if len(args) > 2 {
		return unexpectedArgs("explain", args[2:])
	}
	if len(args) != 2 {
		return fmt.Errorf("usage: hrmsim explain <journal> <trial>")
	}
	trial, err := strconv.Atoi(args[1])
	if err != nil {
		return fmt.Errorf("explain: trial %q is not an index", args[1])
	}
	return hrmsim.Explain(os.Stdout, args[0], trial)
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	cfg := hrmsim.AccessProfileConfig{Size: hrmsim.SizeMedium}
	fs.StringVar((*string)(&cfg.App), "app", "websearch", "application: websearch|kvstore|graphmine")
	fs.IntVar(&cfg.Watchpoints, "watchpoints", 600, "sampled addresses")
	fs.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	fs.Var((*sizeValue)(&cfg.Size), "size", "workload `size`: small|medium|large")
	jsonOut := fs.Bool("json", false, "emit the result as JSON (schema: OBSERVABILITY.md)")
	if err := parseFlags(fs, args, 0); err != nil {
		return err
	}
	rep, err := hrmsim.AccessProfile(cfg)
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
	if err := parseFlags(fs, args, 0); err != nil {
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
	if err := parseFlags(fs, args, 0); err != nil {
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
	if err := parseFlags(fs, args, 0); err != nil {
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
	var lcfg hrmsim.LabConfig
	fs.IntVar(&lcfg.Trials, "trials", 400, "injection trials per campaign cell (with -target-ci: each cell's hard budget)")
	fs.Float64Var(&lcfg.TargetCI, "target-ci", 0, "stop each campaign cell once the 90% CI half-width on its crash probability reaches this target (0 = fixed -trials per cell)")
	fs.Int64Var(&lcfg.Seed, "seed", 1, "random seed")
	ext := fs.Bool("ext", false, "also run the extension experiments")
	jsonOut := fs.Bool("json", false, "emit the results as JSON (schema: OBSERVABILITY.md)")
	progress := fs.Bool("progress", false, "report live trial completion on stderr")
	if err := parseFlags(fs, args, 0); err != nil {
		return err
	}
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
	if err := parseFlags(fs, args, 0); err != nil {
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
