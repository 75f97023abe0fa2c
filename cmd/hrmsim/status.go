// `hrmsim status`, the campaign control plane's CLI surface: it renders
// the fleet view of a campaign directory's shard journals from any
// shell, against a live campaign (workers still appending) or a dead one
// (journals ending in their trailers, or killed without one). How the
// view is derived from the journals is documented in OBSERVABILITY.md;
// the operator workflow in SHARDING.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"hrmsim"
)

// wholeSeconds renders a seconds count as a duration rounded to 1s.
func wholeSeconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(time.Second)
}

// renderFleetStatus renders the full fleet view `hrmsim status` (and
// -watch) prints: campaign identity, aggregate progress, dispositions,
// the Fig. 1 outcome taxonomy so far, and one line per reporting shard
// with the age of its journal's last write — the liveness signal that
// tells a straggling shard from a slow one.
func renderFleetStatus(fs *hrmsim.FleetStatus) string {
	var b strings.Builder
	region := string(fs.Region)
	if region == "" {
		region = "all regions"
	}
	fmt.Fprintf(&b, "Campaign: %s, %s errors, %s, %d trials, seed %d (config %.12s…)\n",
		fs.App, fs.Error, region, fs.Trials, fs.Seed, fs.ConfigHash)
	pct := 0
	if fs.Trials > 0 {
		pct = 100 * fs.Done / fs.Trials
	}
	shardCount := 0
	if len(fs.Shards) > 0 {
		shardCount = fs.Shards[0].Count
	}
	fmt.Fprintf(&b, "  fleet: %d/%d trials (%d%%) | %d/%d shard(s) reporting, %d running",
		fs.Done, fs.Trials, pct, len(fs.Shards), shardCount, fs.Running)
	if fs.Running > 0 && fs.TrialsPerSec > 0 {
		fmt.Fprintf(&b, " | %.1f trials/s | ETA %s", fs.TrialsPerSec, wholeSeconds(fs.EtaSeconds))
	}
	if fs.Interrupted > 0 {
		fmt.Fprintf(&b, " | %d interrupted", fs.Interrupted)
	}
	fmt.Fprintf(&b, "\n  dispositions: %d completed, %d aborted, %d resumed\n",
		fs.Completed, fs.Aborted, fs.Resumed)
	if fs.Adaptive {
		fmt.Fprintf(&b, "  adaptive plan: CI half-width %.4f, %d planned trials", fs.CIHalfWidth, fs.Planned)
		if fs.TrialsSaved > 0 {
			fmt.Fprintf(&b, ", %d of the %d-trial budget saved", fs.TrialsSaved, fs.Trials)
		}
		b.WriteString("\n")
	}
	if len(fs.Outcomes) > 0 {
		var keys []string
		for k := range fs.Outcomes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("  outcomes:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, fs.Outcomes[k])
		}
		b.WriteString("\n")
	}
	for _, sh := range fs.Shards {
		state := "running"
		switch {
		case sh.Interrupted:
			state = "interrupted"
		case !sh.Running:
			state = "finished"
		}
		fmt.Fprintf(&b, "  shard %d/%d [%d,%d): %d/%d %s", sh.Index, sh.Count,
			sh.TrialLo, sh.TrialHi, sh.Done, sh.Total, state)
		if sh.Running && sh.TrialsPerSec > 0 {
			fmt.Fprintf(&b, " | %.1f trials/s | ETA %s", sh.TrialsPerSec, wholeSeconds(sh.EtaSeconds))
		}
		if sh.Adaptive {
			fmt.Fprintf(&b, " | CI ±%.4f", sh.CIHalfWidth)
		}
		fmt.Fprintf(&b, " | written %s ago\n", wholeSeconds(sh.AgeSeconds))
	}
	return b.String()
}

// cmdStatus implements `hrmsim status <shard-dir>`: load the campaign
// directory's shard journals, aggregate them, and render the fleet view
// — once, or repeatedly with -watch until every shard's journal ends in
// its trailer. A journal holds no rate, so only -watch shows one for a
// running shard, measured between its own polls.
func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	dir := fs.String("dir", "", "campaign shard directory holding the shards' *.jsonl journals (may also be given as the positional argument)")
	watch := fs.Bool("watch", false, "re-render every -interval until every shard's journal ends in its trailer (Ctrl-C to stop)")
	interval := fs.Duration("interval", time.Second, "refresh period with -watch")
	jsonOut := fs.Bool("json", false, "emit the fleet status as JSON (schema: OBSERVABILITY.md)")
	if err := dirFlagOrArg(fs, args, dir, "campaign directory"); err != nil {
		return err
	}
	if *watch && *jsonOut {
		return fmt.Errorf("status: -watch renders text; poll `hrmsim status -json` for machine consumption")
	}
	if *interval <= 0 {
		return fmt.Errorf("status: -interval must be positive, got %v", *interval)
	}
	if !*watch {
		fleet, err := hrmsim.LoadFleetStatus(*dir)
		if err != nil {
			return err
		}
		if *jsonOut {
			return emitJSON(envelope{Command: "status", Result: fleet, Metrics: fleet.Metrics})
		}
		fmt.Print(renderFleetStatus(fleet))
		return nil
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	// A running shard's rate: record count growth since its first poll.
	type sighting struct {
		done int
		at   time.Time
	}
	first := make(map[int]sighting)
	for {
		fleet, err := hrmsim.LoadFleetStatus(*dir)
		switch {
		case errors.Is(err, hrmsim.ErrNoStatus):
			fmt.Printf("status: waiting for the first shard journal in %s\n", *dir)
		case err != nil:
			return err
		default:
			now := time.Now()
			for i := range fleet.Shards {
				sh := &fleet.Shards[i]
				f, ok := first[sh.Index]
				if !ok || sh.Done < f.done {
					first[sh.Index] = sighting{sh.Done, now}
				} else if sh.Running && sh.Done > f.done {
					sh.TrialsPerSec = float64(sh.Done-f.done) / now.Sub(f.at).Seconds()
					sh.EtaSeconds = float64(max(sh.Total-sh.Done, 0)) / sh.TrialsPerSec
					fleet.TrialsPerSec += sh.TrialsPerSec
				}
			}
			if rem := fleet.Trials - fleet.Done; rem > 0 && fleet.TrialsPerSec > 0 {
				fleet.EtaSeconds = float64(rem) / fleet.TrialsPerSec
			}
			fmt.Print(renderFleetStatus(fleet))
			// A shard that has not started yet has no journal: the
			// campaign is settled only once every index has reported.
			reported := make(map[int]bool)
			for _, sh := range fleet.Shards {
				reported[sh.Index] = true
			}
			if fleet.Running == 0 && len(reported) == fleet.Shards[0].Count {
				return nil
			}
			fmt.Println()
		}
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
	}
}
