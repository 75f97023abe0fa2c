package hrmsim

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"hrmsim/internal/core"
	"hrmsim/internal/obsv"
)

// TestShardMergeEquivalence pins the tentpole guarantee of the sharding
// subsystem: a campaign run as N worker shards (each journaling its
// slice, its trailer marking it finished) and merged back with MergeShards is
// bit-identical to the single-process run, for every application, shard
// count, and per-shard parallelism — modulo the run-shape bookkeeping
// (Parallelism records the worker pool that happened to run, which a
// merge does not have; a merged result reports 0).
func TestShardMergeEquivalence(t *testing.T) {
	for _, app := range Apps() {
		base := CharacterizeConfig{
			App:    app,
			Error:  SoftSingleBit,
			Size:   SizeSmall,
			Trials: 30,
			Seed:   13,
		}
		want, err := Characterize(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4} {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/shards=%d/par=%d", app, shards, par), func(t *testing.T) {
					dir := t.TempDir()
					for i := 0; i < shards; i++ {
						cfg := base
						cfg.Parallelism = par
						cfg.ShardIndex, cfg.ShardCount = i, shards
						cfg.JournalPath = filepath.Join(dir, core.ShardJournalName(i, shards))
						c, err := Characterize(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if c.Shard == nil || c.Shard.Index != i || c.Shard.Count != shards {
							t.Fatalf("shard %d/%d: Shard = %+v", i, shards, c.Shard)
						}
						lo, hi := (core.ShardSpec{Index: i, Count: shards}).Range(base.Trials)
						if c.Shard.TrialLo != lo || c.Shard.TrialHi != hi {
							t.Fatalf("shard %d/%d: range [%d,%d), want [%d,%d)",
								i, shards, c.Shard.TrialLo, c.Shard.TrialHi, lo, hi)
						}
						if c.Completed+c.Aborted != hi-lo {
							t.Fatalf("shard %d/%d: %d results, want %d",
								i, shards, c.Completed+c.Aborted, hi-lo)
						}
					}
					got, info, err := MergeShards(MergeConfig{Dir: dir})
					if err != nil {
						t.Fatal(err)
					}
					if info.Records != base.Trials || info.Missing != 0 || info.Duplicates != 0 {
						t.Fatalf("merge info = %+v", info)
					}
					if len(info.Shards) != shards {
						t.Fatalf("merged %d shards, want %d", len(info.Shards), shards)
					}
					// Bit-identical modulo run-shape bookkeeping.
					wantCmp, gotCmp := *want, *got
					gotCmp.Parallelism = wantCmp.Parallelism
					if !reflect.DeepEqual(wantCmp, gotCmp) {
						t.Errorf("merged result diverged from single-process run:\nsingle: %+v\nmerged: %+v",
							wantCmp, gotCmp)
					}
				})
			}
		}
	}
}

// TestShardMetricsSnapshotMergeEquivalence pins the metrics half of the
// sharding contract: merging the per-shard registry snapshots
// (obsv.MergeSnapshots) reproduces the single-process registry for the
// same equivalence campaigns TestShardMergeEquivalence runs — for every
// deterministic metric. Run-shape metrics are excluded by name:
// campaign_trial_wall_ms measures wall clocks and
// campaign_snapshot_dirty_pages depends on how trials landed on worker
// sessions. Every counter and the virtual-time histogram are
// deterministic and must merge to exactly the single-process values; a
// fixed-plan campaign registers no gauge.
func TestShardMetricsSnapshotMergeEquivalence(t *testing.T) {
	for _, app := range Apps() {
		base := CharacterizeConfig{
			App:         app,
			Error:       SoftSingleBit,
			Size:        SizeSmall,
			Trials:      30,
			Seed:        13,
			Parallelism: 2,
		}
		singleReg := obsv.NewRegistry()
		cfg := base
		cfg.Metrics = singleReg
		if _, err := Characterize(cfg); err != nil {
			t.Fatal(err)
		}
		want := singleReg.Snapshot()
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", app, shards), func(t *testing.T) {
				snaps := make([]obsv.Snapshot, shards)
				for i := 0; i < shards; i++ {
					reg := obsv.NewRegistry()
					cfg := base
					cfg.ShardIndex, cfg.ShardCount = i, shards
					cfg.Metrics = reg
					if _, err := Characterize(cfg); err != nil {
						t.Fatal(err)
					}
					snaps[i] = reg.Snapshot()
				}
				got := obsv.MergeSnapshots(snaps...)
				if !reflect.DeepEqual(got.Counters, want.Counters) {
					t.Errorf("merged counters diverged from single-process run:\nmerged: %v\nsingle: %v",
						got.Counters, want.Counters)
				}
				if len(got.Gauges) != 0 || len(want.Gauges) != 0 {
					t.Errorf("fixed-plan campaign registered gauges: merged %v, single %v", got.Gauges, want.Gauges)
				}
				// The virtual-time histogram's bucket counts are exact;
				// Sum is a float accumulated in worker-completion order,
				// so it agrees only up to addition-reordering rounding.
				const virtHist = "campaign_trial_virtual_minutes"
				gh, wh := got.Histograms[virtHist], want.Histograms[virtHist]
				if !reflect.DeepEqual(gh.Bounds, wh.Bounds) || !reflect.DeepEqual(gh.Counts, wh.Counts) || gh.Count != wh.Count {
					t.Errorf("merged %s diverged:\nmerged: %+v\nsingle: %+v", virtHist, gh, wh)
				}
				if diff := gh.Sum - wh.Sum; diff < -1e-9 || diff > 1e-9 {
					t.Errorf("merged %s sum = %v, single-process %v", virtHist, gh.Sum, wh.Sum)
				}
				// Merge order must not matter for real campaign snapshots
				// either (beyond the obsv unit tests' synthetic ones).
				rev := make([]obsv.Snapshot, shards)
				for i := range snaps {
					rev[shards-1-i] = snaps[i]
				}
				back := obsv.MergeSnapshots(rev...)
				if !reflect.DeepEqual(back.Counters, got.Counters) {
					t.Errorf("counter merge is order-dependent:\nfwd: %v\nrev: %v",
						got.Counters, back.Counters)
				}
			})
		}
	}
}

// TestMergeShardsValidation covers the facade's merge error paths.
func TestMergeShardsValidation(t *testing.T) {
	if _, _, err := MergeShards(MergeConfig{}); err == nil {
		t.Error("want error for missing Dir")
	}
	if _, _, err := MergeShards(MergeConfig{Dir: t.TempDir()}); err == nil {
		t.Error("want error for empty shard directory")
	}
}

// TestCharacterizeShardValidation covers the facade's shard config
// error paths.
func TestCharacterizeShardValidation(t *testing.T) {
	base := CharacterizeConfig{App: AppKVStore, Size: SizeSmall, Trials: 10, Seed: 1}

	cfg := base
	cfg.ShardIndex, cfg.ShardCount = 2, 2
	if _, err := Characterize(cfg); err == nil {
		t.Error("want error for shard index out of range")
	}

	cfg = base
	cfg.ShardIndex = 1 // no ShardCount
	if _, err := Characterize(cfg); err == nil {
		t.Error("want error for ShardIndex without ShardCount")
	}
}

// TestUnshardedFinalRecordMerges: a plain single-process run's journal
// ends in a trailer and its header names no shard, so it reads as a
// finished shard 0/1, consumable by MergeShards like any shard set.
func TestUnshardedFinalRecordMerges(t *testing.T) {
	dir := t.TempDir()
	cfg := CharacterizeConfig{
		App:         AppKVStore,
		Size:        SizeSmall,
		Trials:      20,
		Seed:        4,
		JournalPath: filepath.Join(dir, "run.jsonl"),
	}
	want, err := Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Shard != nil {
		t.Fatalf("unsharded run reported Shard = %+v", want.Shard)
	}
	got, info, err := MergeShards(MergeConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards[0].Index != 0 || info.Shards[0].Count != 1 {
		t.Fatalf("unsharded journal coordinates = %d/%d, want 0/1", info.Shards[0].Index, info.Shards[0].Count)
	}
	wantCmp, gotCmp := *want, *got
	gotCmp.Parallelism = wantCmp.Parallelism
	if !reflect.DeepEqual(wantCmp, gotCmp) {
		t.Errorf("merge of the 0/1 journal diverged:\nrun:    %+v\nmerged: %+v", wantCmp, gotCmp)
	}
}
