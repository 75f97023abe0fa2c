// Coordinator unit tests run shard workers in-process through the
// launcher seam: under `go test`, os.Executable() is the test binary, so
// the real process launcher is exercised by scripts/shard_smoke.sh
// instead.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hrmsim"
	"hrmsim/internal/obsv"
)

// chanWaiter adapts a goroutine's exit error to the waiter interface.
type chanWaiter chan error

func (c chanWaiter) Wait() error { return <-c }

// inProcessLauncher runs each shard task as a hrmsim.Characterize call
// in a goroutine. Shards listed in crashOnce fail their first attempt
// partway through (journal written, then a nonzero "exit"), exercising
// the coordinator's respawn-with-resume path.
func inProcessLauncher(t *testing.T, cfg coordinatorConfig, crashOnce map[int]bool) shardLauncher {
	t.Helper()
	var mu sync.Mutex
	crashed := make(map[int]bool)
	return func(task shardTask) (waiter, error) {
		done := make(chanWaiter, 1)
		ccfg := workerConfig(cfg.Campaign, task)
		if task.Status != "" {
			// Mirror the real worker: a status-writing run carries a
			// registry so heartbeats embed metrics snapshots.
			ccfg.Metrics = obsv.NewRegistry()
		}
		mu.Lock()
		simulateCrash := crashOnce[task.Index] && !crashed[task.Index]
		if simulateCrash {
			crashed[task.Index] = true
		}
		mu.Unlock()
		go func() {
			if simulateCrash {
				// Die after a few journaled trials, like a worker killed
				// mid-campaign.
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				ccfg.Context = ctx
				ccfg.Progress = func(p hrmsim.ProgressInfo) {
					if p.Done >= 2 {
						cancel()
					}
				}
				_, _ = hrmsim.Characterize(ccfg)
				done <- fmt.Errorf("simulated worker crash")
				return
			}
			_, err := hrmsim.Characterize(ccfg)
			done <- err
		}()
		return done, nil
	}
}

func testCoordinatorConfig(t *testing.T) coordinatorConfig {
	return coordinatorConfig{
		Campaign: hrmsim.CharacterizeConfig{
			App: hrmsim.AppKVStore, Error: hrmsim.SoftSingleBit, Size: hrmsim.SizeSmall, Trials: 24, Seed: 6,
		},
		Shards:      3,
		Dir:         t.TempDir(),
		MaxRespawns: 2,
		Metrics:     obsv.NewRegistry(),
		Log:         io.Discard,
	}
}

// TestCoordinatorMergesShards: a healthy coordinator run produces the
// single-process result (modulo parallelism bookkeeping) and counts its
// spawns.
func TestCoordinatorMergesShards(t *testing.T) {
	cfg := testCoordinatorConfig(t)
	cfg.Launch = inProcessLauncher(t, cfg, nil)
	out, err := runCoordinator(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failed) != 0 {
		t.Fatalf("failed shards: %v", out.Failed)
	}
	if out.Info.Records != cfg.Campaign.Trials || out.Info.Missing != 0 {
		t.Fatalf("merge info = %+v", out.Info)
	}

	want, err := hrmsim.Characterize(hrmsim.CharacterizeConfig{
		App: hrmsim.AppKVStore, Size: hrmsim.SizeSmall, Trials: cfg.Campaign.Trials, Seed: cfg.Campaign.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCmp, gotCmp := *want, *out.Result
	gotCmp.Parallelism = wantCmp.Parallelism
	if !reflect.DeepEqual(wantCmp, gotCmp) {
		t.Errorf("coordinator result diverged:\nsingle:      %+v\ncoordinator: %+v", wantCmp, gotCmp)
	}

	snap := cfg.Metrics.Snapshot()
	if snap.Counters["campaign_shards_total"] != int64(cfg.Shards) {
		t.Errorf("campaign_shards_total = %d, want %d", snap.Counters["campaign_shards_total"], cfg.Shards)
	}
	if snap.Counters["campaign_shard_respawns_total"] != 0 {
		t.Errorf("campaign_shard_respawns_total = %d, want 0", snap.Counters["campaign_shard_respawns_total"])
	}
}

// TestCoordinatorRespawnsCrashedShard: a shard that dies mid-run is
// respawned with -resume and the campaign still merges complete and
// bit-identical.
func TestCoordinatorRespawnsCrashedShard(t *testing.T) {
	cfg := testCoordinatorConfig(t)
	cfg.Launch = inProcessLauncher(t, cfg, map[int]bool{1: true})
	out, err := runCoordinator(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failed) != 0 {
		t.Fatalf("failed shards: %v", out.Failed)
	}
	if out.Info.Records != cfg.Campaign.Trials || out.Info.Missing != 0 {
		t.Fatalf("merge info after respawn = %+v", out.Info)
	}

	snap := cfg.Metrics.Snapshot()
	if snap.Counters["campaign_shards_total"] != int64(cfg.Shards+1) {
		t.Errorf("campaign_shards_total = %d, want %d (respawn counts as a spawn)",
			snap.Counters["campaign_shards_total"], cfg.Shards+1)
	}
	if snap.Counters["campaign_shard_respawns_total"] != 1 {
		t.Errorf("campaign_shard_respawns_total = %d, want 1", snap.Counters["campaign_shard_respawns_total"])
	}
	labeled := obsv.LabeledName("campaign_shard_respawns_total", "shard", "1")
	if snap.Counters[labeled] != 1 {
		t.Errorf("%s = %d, want 1", labeled, snap.Counters[labeled])
	}

	want, err := hrmsim.Characterize(hrmsim.CharacterizeConfig{
		App: hrmsim.AppKVStore, Size: hrmsim.SizeSmall, Trials: cfg.Campaign.Trials, Seed: cfg.Campaign.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCmp, gotCmp := *want, *out.Result
	gotCmp.Parallelism = wantCmp.Parallelism
	if !reflect.DeepEqual(wantCmp, gotCmp) {
		t.Errorf("post-respawn result diverged:\nsingle:      %+v\ncoordinator: %+v", wantCmp, gotCmp)
	}
}

// TestCoordinatorGivesUpAfterMaxRespawns: a shard that keeps dying is
// reported failed; the others still merge into a partial result.
func TestCoordinatorGivesUpAfterMaxRespawns(t *testing.T) {
	cfg := testCoordinatorConfig(t)
	cfg.MaxRespawns = 1
	// Always-crashing launcher for shard 2, normal for the rest.
	normal := inProcessLauncher(t, cfg, nil)
	cfg.Launch = func(task shardTask) (waiter, error) {
		if task.Index == 2 {
			done := make(chanWaiter, 1)
			done <- fmt.Errorf("simulated persistent crash")
			return done, nil
		}
		return normal(task)
	}
	out, err := runCoordinator(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failed) != 1 || out.Failed[0] != 2 {
		t.Fatalf("failed = %v, want [2]", out.Failed)
	}
	if !out.Result.Interrupted {
		t.Error("partial merge not marked Interrupted")
	}
	lo, hi := 2*cfg.Campaign.Trials/3, cfg.Campaign.Trials
	if out.Info.Missing != hi-lo {
		t.Errorf("missing = %d, want %d (shard 2's range)", out.Info.Missing, hi-lo)
	}
	snap := cfg.Metrics.Snapshot()
	if snap.Counters["campaign_shard_respawns_total"] != 1 {
		t.Errorf("campaign_shard_respawns_total = %d, want 1 (MaxRespawns)",
			snap.Counters["campaign_shard_respawns_total"])
	}
}

// TestWorkerArgsRoundTrip: the worker command line generated from a
// config parses back into that config, with every campaign flag set to a
// non-default value — so a flag bindCampaignFlags registers cannot fail to
// reach the workers. Hooks and registries have no flag.
func TestWorkerArgsRoundTrip(t *testing.T) {
	want := hrmsim.CharacterizeConfig{
		App: hrmsim.AppGraphMine, Error: hrmsim.HardDoubleBit, Region: hrmsim.RegionHeap,
		Trials: 77, TargetCI: 0.125, MinTrials: 11, Seed: 9,
		Size: hrmsim.SizeLarge, Parallelism: 3,
		JournalPath: "j.jsonl", ResumePath: "r.jsonl", StatusPath: "s.json",
		ShardIndex: 2, ShardCount: 5,
	}
	want.TrialTimeout = 90 * time.Second
	want.TrialOpBudget = 123456
	want.StatusInterval = 50 * time.Millisecond

	args := workerArgs(want)
	if args[0] != "characterize" {
		t.Fatalf("argv[0] = %q", args[0])
	}
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	var got hrmsim.CharacterizeConfig
	bindCampaignFlags(fs, &got)
	if err := fs.Parse(args[1:]); err != nil {
		t.Fatalf("worker argv %v does not parse: %v", args, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverged:\nargv: %v\ngot:  %+v\nwant: %+v", args, got, want)
	}
	// The config above must exercise every registered flag; a new flag
	// has to be added to it (and is then checked by the comparison).
	registered := 0
	fs.VisitAll(func(*flag.Flag) { registered++ })
	if len(args)-1 != registered {
		t.Errorf("%d of %d campaign flags forwarded — give the new flag a non-default value in this test: %v",
			len(args)-1, registered, args)
	}

	// A default config forwards nothing but the subcommand.
	var def hrmsim.CharacterizeConfig
	bindCampaignFlags(flag.NewFlagSet("characterize", flag.ContinueOnError), &def)
	if args := workerArgs(def); len(args) != 1 {
		t.Errorf("default config forwards %v", args)
	}
}

// TestCoordinatorForwardsStatusInterval: `-status-interval` given to a
// coordinator reaches every worker, in its config and on its command
// line (it used to be dropped on the way).
func TestCoordinatorForwardsStatusInterval(t *testing.T) {
	c, err := parseCharacterize([]string{"-app", "kvstore", "-size", "small", "-trials", "12",
		"-coordinator", "-shards", "2", "-shard-dir", t.TempDir(), "-status-interval", "50ms"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.coord
	cfg.Log = io.Discard
	inProcess := inProcessLauncher(t, cfg, nil)
	var mu sync.Mutex
	var seen []hrmsim.CharacterizeConfig
	cfg.Launch = func(task shardTask) (waiter, error) {
		mu.Lock()
		seen = append(seen, workerConfig(cfg.Campaign, task))
		mu.Unlock()
		return inProcess(task)
	}
	if _, err := runCoordinator(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("%d workers launched, want 2", len(seen))
	}
	for _, w := range seen {
		if w.StatusInterval != 50*time.Millisecond {
			t.Errorf("shard %d/%d runs with StatusInterval %v, want 50ms", w.ShardIndex, w.ShardCount, w.StatusInterval)
		}
		argv := strings.Join(workerArgs(w), " ")
		for _, flag := range []string{"-status-interval=50ms", "-size=small", "-trials=12",
			fmt.Sprintf("-shard=%d/2", w.ShardIndex), "-status=" + w.StatusPath} {
			if !strings.Contains(argv, flag) {
				t.Errorf("worker argv lacks %s: %s", flag, argv)
			}
		}
	}
}
