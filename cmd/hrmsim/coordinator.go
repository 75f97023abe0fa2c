// Coordinator mode: `hrmsim characterize -coordinator -shards N` runs a
// campaign as N local worker processes, one per shard, and merges their
// journals into the single-process result. The coordinator is the
// process-level tier of the supervision hierarchy: the in-process
// supervisor (internal/core) watches trials inside one worker, the
// coordinator watches the workers themselves — straggler warnings from
// heartbeat age (journal growth as the fallback), crashed-shard respawn
// with -resume, the live fleet view tailed from the workers' status
// records — and hands the surviving journals to the merge. SHARDING.md
// documents the operator contract; OBSERVABILITY.md the status schema.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"hrmsim"
	"hrmsim/internal/core"
	"hrmsim/internal/obsv"
)

// coordinatorConfig is the campaign a coordinator hands to its shard
// workers, plus the supervision knobs.
type coordinatorConfig struct {
	// Campaign is the campaign as the user described it. Every worker
	// runs it with only the coordinator-owned fields — shard, journal,
	// status, resume — set per task (workerConfig).
	Campaign hrmsim.CharacterizeConfig

	// Shards is the number of worker processes (= shard count).
	Shards int
	// Dir receives the shard journals and status records; empty means a fresh
	// temporary directory, removed again after a complete merge.
	Dir string
	// StragglerAfter is the staleness threshold for straggler warnings
	// (0 = off): a shard whose heartbeat record — or, for workers
	// without one, whose journal — has not advanced for this long is
	// reported. MaxRespawns bounds per-shard crash respawns.
	StragglerAfter time.Duration
	MaxRespawns    int

	// StatusAddr, if non-empty, serves the live fleet view over HTTP
	// (/statusz, merged /metrics, /healthz, pprof); consumed by
	// runCoordinatorCmd, not runCoordinator.
	StatusAddr string
	// FleetSink, if non-nil, receives the fleet aggregate the
	// coordinator tails from the shard heartbeat records: once per
	// supervision tick while workers run (skipping ticks where no shard
	// has reported yet), and once more with the final records after the
	// last worker exits. Calls are serialized.
	FleetSink func(*hrmsim.FleetStatus)

	Metrics *obsv.Registry
	// Launch overrides how workers are started (tests run shards
	// in-process; nil = spawn this executable with `characterize -shard`).
	Launch shardLauncher
	// Log receives supervision lines (nil = stderr).
	Log io.Writer
}

// shardTask is one worker assignment.
type shardTask struct {
	Index, Count int
	Journal      string
	// Status is the worker's heartbeat record path (see
	// core.ShardStatus); the coordinator tails these into the fleet view,
	// and the merge consumes the final ones.
	Status string
	// Resume makes the worker skip trials its journal already records
	// (set on respawn after a crash).
	Resume bool
}

// waiter is the running worker handle the coordinator blocks on
// (*exec.Cmd in production, a goroutine wrapper in tests).
type waiter interface {
	Wait() error
}

// shardLauncher starts one shard worker.
type shardLauncher func(task shardTask) (waiter, error)

// workerConfig is the campaign as one shard task's worker runs it.
func workerConfig(campaign hrmsim.CharacterizeConfig, task shardTask) hrmsim.CharacterizeConfig {
	campaign.ShardIndex, campaign.ShardCount = task.Index, task.Count
	campaign.JournalPath, campaign.StatusPath = task.Journal, task.Status
	if task.Resume {
		campaign.ResumePath = task.Journal
	}
	return campaign
}

// workerArgs is the `hrmsim characterize` command line that reproduces
// cfg in another process: every campaign flag whose value differs from its
// default, read off the very flag set the worker will parse it with — so a
// campaign flag that is registered is forwarded, by construction.
func workerArgs(cfg hrmsim.CharacterizeConfig) []string {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	var bound hrmsim.CharacterizeConfig
	bindCampaignFlags(fs, &bound)
	bound = cfg
	args := []string{"characterize"}
	fs.VisitAll(func(f *flag.Flag) {
		if v := f.Value.String(); v != f.DefValue {
			args = append(args, "-"+f.Name+"="+v)
		}
	})
	return args
}

// processLauncher launches shard workers as child processes of this very
// executable: `hrmsim characterize ... -shard=i/N -journal=... -status=...`.
func processLauncher(campaign hrmsim.CharacterizeConfig, log io.Writer) shardLauncher {
	return func(task shardTask) (waiter, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("locating the hrmsim executable: %w", err)
		}
		cmd := exec.Command(exe, workerArgs(workerConfig(campaign, task))...)
		cmd.Stdout = io.Discard // the shard's text report is noise; its journal is the output
		cmd.Stderr = log
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("spawning shard %d/%d: %w", task.Index, task.Count, err)
		}
		return cmd, nil
	}
}

// coordinatorOutcome is what a finished coordinator run hands back for
// rendering: the merged result plus the supervision record.
type coordinatorOutcome struct {
	Result *hrmsim.Characterization
	Info   *hrmsim.MergeInfo
	// Dir is the shard directory (kept on partial results so the
	// operator can respawn and re-merge).
	Dir string
	// Failed lists shard indices that still had no clean exit after
	// MaxRespawns respawns.
	Failed []int
}

// runCoordinator executes a sharded campaign end to end: spawn every
// shard, supervise, merge.
func runCoordinator(ctx context.Context, cfg coordinatorConfig) (*coordinatorOutcome, error) {
	logw := cfg.Log
	if logw == nil {
		logw = os.Stderr
	}
	dir := cfg.Dir
	madeTemp := false
	if dir == "" {
		d, err := os.MkdirTemp("", "hrmsim-shards-")
		if err != nil {
			return nil, fmt.Errorf("creating shard directory: %w", err)
		}
		dir = d
		madeTemp = true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating shard directory: %w", err)
	}

	launch := cfg.Launch
	if launch == nil {
		launch = processLauncher(cfg.Campaign, logw)
	}
	var spawns, respawned *obsv.Counter
	if cfg.Metrics != nil {
		spawns = cfg.Metrics.Counter("campaign_shards_total")
		respawned = cfg.Metrics.Counter("campaign_shard_respawns_total")
	}

	type exit struct {
		shard int
		err   error
	}
	exits := make(chan exit, cfg.Shards)
	tasks := make([]shardTask, cfg.Shards)
	start := func(i int, resume bool) error {
		tasks[i].Resume = resume
		w, err := launch(tasks[i])
		if err != nil {
			return err
		}
		if spawns != nil {
			spawns.Inc()
		}
		go func() { exits <- exit{i, w.Wait()} }()
		return nil
	}

	running := 0
	respawns := make([]int, cfg.Shards)
	lastWarn := make([]time.Time, cfg.Shards)
	alive := make([]bool, cfg.Shards)
	var failed []int
	for i := 0; i < cfg.Shards; i++ {
		tasks[i] = shardTask{
			Index:   i,
			Count:   cfg.Shards,
			Journal: filepath.Join(dir, core.ShardJournalName(i, cfg.Shards)),
			Status:  filepath.Join(dir, core.ShardStatusName(i, cfg.Shards)),
		}
		if err := start(i, false); err != nil {
			return nil, err
		}
		alive[i] = true
		lastWarn[i] = time.Now()
		running++
	}
	fmt.Fprintf(logw, "coordinator: %d shards of %d trials running in %s\n", cfg.Shards, cfg.Campaign.Trials, dir)

	// loadFleet tails the shard heartbeat records into the fleet
	// aggregate. Nil means "no view this tick": before the first
	// heartbeat (ErrNoStatus) or when the directory is unreadable — the
	// journal-mtime straggler fallback still covers that case.
	loadFleet := func() *hrmsim.FleetStatus {
		fs, err := hrmsim.LoadFleetStatus(dir)
		if err != nil {
			return nil
		}
		return fs
	}

	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	done := 0
	for running > 0 {
		select {
		case e := <-exits:
			if e.err != nil && ctx.Err() == nil && respawns[e.shard] < cfg.MaxRespawns {
				respawns[e.shard]++
				if cfg.Metrics != nil {
					respawned.Inc()
					cfg.Metrics.Counter(obsv.LabeledName(
						"campaign_shard_respawns_total", "shard", strconv.Itoa(e.shard))).Inc()
				}
				// The journal the crashed worker left behind (possibly
				// torn-tailed; the reader repairs that) seeds the respawn.
				_, statErr := os.Stat(tasks[e.shard].Journal)
				fmt.Fprintf(logw, "coordinator: shard %d/%d crashed (%v); respawn %d/%d%s\n",
					e.shard, cfg.Shards, e.err, respawns[e.shard], cfg.MaxRespawns,
					map[bool]string{true: " resuming its journal", false: ""}[statErr == nil])
				if err := start(e.shard, statErr == nil); err != nil {
					fmt.Fprintf(logw, "coordinator: respawning shard %d/%d: %v\n", e.shard, cfg.Shards, err)
					failed = append(failed, e.shard)
					alive[e.shard] = false
					running--
				}
				continue
			}
			alive[e.shard] = false
			running--
			if e.err != nil {
				failed = append(failed, e.shard)
				fmt.Fprintf(logw, "coordinator: shard %d/%d failed permanently after %d respawns: %v\n",
					e.shard, cfg.Shards, respawns[e.shard], e.err)
			} else {
				done++
				fmt.Fprintf(logw, "coordinator: shard %d/%d finished (%d/%d done)\n",
					e.shard, cfg.Shards, done, cfg.Shards)
			}
		case <-tick.C:
			if cfg.FleetSink == nil && cfg.StragglerAfter <= 0 {
				continue
			}
			fleet := loadFleet()
			if fleet != nil && cfg.FleetSink != nil {
				cfg.FleetSink(fleet)
			}
			if cfg.StragglerAfter <= 0 {
				continue
			}
			now := time.Now()
			heartbeats := make(map[int]time.Time)
			if fleet != nil {
				for _, sh := range fleet.Shards {
					heartbeats[sh.Index] = sh.UpdatedAt()
				}
			}
			for i := 0; i < cfg.Shards; i++ {
				if !alive[i] {
					continue
				}
				hb, ok := heartbeats[i]
				last, detail := shardLiveness(now, lastWarn[i], hb, ok, tasks[i].Journal)
				if now.Sub(last) >= cfg.StragglerAfter {
					fmt.Fprintf(logw, "coordinator: shard %d/%d is straggling — %s\n", i, cfg.Shards, detail)
					lastWarn[i] = now
				}
			}
		}
	}
	// The last worker's final record (Running=false) may land after the
	// last tick; deliver the settled fleet view once more.
	if cfg.FleetSink != nil {
		if fleet := loadFleet(); fleet != nil {
			cfg.FleetSink(fleet)
		}
	}

	c, info, err := hrmsim.MergeShards(hrmsim.MergeConfig{Dir: dir, Metrics: cfg.Metrics})
	if err != nil {
		return nil, fmt.Errorf("merging shard directory %s: %w", dir, err)
	}
	out := &coordinatorOutcome{Result: c, Info: info, Dir: dir, Failed: failed}
	if madeTemp && len(failed) == 0 && info.Missing == 0 && !c.Interrupted {
		os.RemoveAll(dir)
		out.Dir = ""
	}
	return out, nil
}

// shardLiveness derives a live shard's last-progress instant and a
// log-ready diagnosis. The heartbeat record is the primary signal (a
// healthy worker refreshes it on every throttled trial completion); a
// worker without one falls back to journal growth, and a worker with
// neither artifact has not finished a single trial yet — its own
// diagnosis, reported explicitly instead of a misleading staleness age.
// floor is the last instant the shard was known live (spawn or the
// previous warning), so warnings repeat at the straggler period rather
// than every tick.
func shardLiveness(now, floor time.Time, heartbeat time.Time, hasHeartbeat bool, journal string) (last time.Time, detail string) {
	last = floor
	if hasHeartbeat {
		if heartbeat.After(last) {
			last = heartbeat
		}
		return last, fmt.Sprintf("last heartbeat %s ago", now.Sub(heartbeat).Round(time.Second))
	}
	st, err := os.Stat(journal)
	switch {
	case err == nil:
		if st.ModTime().After(last) {
			last = st.ModTime()
		}
		return last, fmt.Sprintf("no heartbeat; journal %s unchanged for %s",
			journal, now.Sub(st.ModTime()).Round(time.Second))
	case os.IsNotExist(err):
		return last, "no heartbeat and no journal yet — the worker has not finished a single trial"
	default:
		return last, fmt.Sprintf("no heartbeat; journal %s unreadable: %v", journal, err)
	}
}

// runCoordinatorCmd is the CLI wrapper: signal handling, metrics, the
// status HTTP server, the aggregate progress line, and rendering
// around runCoordinator.
func runCoordinatorCmd(cfg coordinatorConfig, jsonOut, progress bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	reg := obsv.NewRegistry()
	cfg.Metrics = reg
	// Fan the tailed fleet view out to every consumer: the status
	// server's atomic snapshot and, with -progress, the aggregate
	// one-line progress renderer (runCoordinator serializes the calls).
	var fleet atomic.Pointer[hrmsim.FleetStatus]
	sinks := []func(*hrmsim.FleetStatus){func(fs *hrmsim.FleetStatus) { fleet.Store(fs) }}
	if progress {
		sinks = append(sinks, fleetProgressSink(os.Stderr))
	}
	cfg.FleetSink = func(fs *hrmsim.FleetStatus) {
		for _, sink := range sinks {
			sink(fs)
		}
	}
	if cfg.StatusAddr != "" {
		shutdown, addr, err := startStatusServer(cfg.StatusAddr, fleet.Load, reg)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "coordinator: status on http://%s/statusz\n", addr)
	}
	out, err := runCoordinator(ctx, cfg)
	if err != nil {
		return err
	}
	c, info := out.Result, out.Info
	if out.Dir != "" && (c.Interrupted || info.Missing > 0 || len(out.Failed) > 0) {
		fmt.Fprintf(os.Stderr, "coordinator: shard directory kept at %s — respawn the incomplete shards and `hrmsim merge -dir %s`\n",
			out.Dir, out.Dir)
	}
	if jsonOut {
		snap := reg.Snapshot()
		if err := emitJSON(envelope{Command: "characterize", Interrupted: c.Interrupted,
			Result: toCharacterizeJSON(c), Metrics: &snap, Merged: info}); err != nil {
			return err
		}
	} else {
		printCharacterization(c)
	}
	if len(out.Failed) > 0 {
		return fmt.Errorf("coordinator: %d shard(s) %v failed permanently after %d respawns; the merged result covers the others",
			len(out.Failed), out.Failed, cfg.MaxRespawns)
	}
	return nil
}
