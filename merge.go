package hrmsim

import (
	"fmt"
	"path/filepath"

	"hrmsim/internal/core"
	"hrmsim/internal/obsv"
)

// MergeConfig configures a cross-shard merge (the CLI's `hrmsim merge`).
type MergeConfig struct {
	// Dir is the shard directory: every finished shard journal in it
	// (*.jsonl whose last complete line is a trailer) is merged.
	// Required.
	Dir string
	// Metrics, if non-nil, receives merge instrumentation
	// (merge_shards_total, merge_records_total,
	// merge_duplicate_trials_total, merge_missing_trials_total; see
	// OBSERVABILITY.md). Internal for the same reason as
	// CharacterizeConfig.Metrics.
	Metrics *obsv.Registry
}

// MergeShardInfo summarizes one input shard of a merge: its
// coordinates and range from its journal header, then its journal.
type MergeShardInfo struct {
	ShardInfo
	// Journal is the shard's journal path.
	Journal string `json:"journal"`
	// Completed / Aborted count the shard's own records in its range
	// (before cross-shard dedup); Interrupted echoes its trailer.
	Completed   int  `json:"completed"`
	Aborted     int  `json:"aborted,omitempty"`
	Interrupted bool `json:"interrupted,omitempty"`
}

// MergeInfo reports what a merge consumed and reconciled. Its tags are
// the -json envelope's `merged` section.
type MergeInfo struct {
	// ConfigHash is the campaign config hash every shard agreed on.
	ConfigHash string `json:"config_hash"`
	// Shards describes each merged shard in merge (ascending index)
	// order; never nil.
	Shards []MergeShardInfo `json:"shards"`
	// Records is the number of distinct trials in the merged result;
	// Duplicates counts records dropped by keep-first dedup; Missing
	// counts campaign trial indices no shard recorded.
	Records    int `json:"records"`
	Duplicates int `json:"duplicates,omitempty"`
	Missing    int `json:"missing,omitempty"`
	// Metrics is the deterministic aggregate of every input shard's
	// trailer metrics snapshot (obsv.MergeSnapshots: counters summed,
	// fixed-bucket histograms merged, gauges by max — the same rule the
	// live fleet view applies, so a post-hoc merge and `hrmsim status`
	// report the same numbers). Nil when no shard recorded metrics. Not
	// part of the `merged` section.
	Metrics *obsv.Snapshot `json:"-"`
}

// MergeShards merges a directory of shard journals (written by sharded
// `hrmsim characterize -shard i/N -journal f.jsonl` runs, finished ones
// ending in a trailer) into one Characterization, bit-identical to
// the single-process campaign except for the run-shape bookkeeping:
// Parallelism is 0 (a merge has no worker pool) and Resumed is 0
// (per-shard resume counts are a property of the shard runs, not the
// merged science). Shards must agree on the campaign config hash; live
// or crashed shards and missing trials yield a partial result with
// Interrupted set, not an error. The full contract is documented in
// SHARDING.md.
func MergeShards(cfg MergeConfig) (*Characterization, *MergeInfo, error) {
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("hrmsim: MergeConfig.Dir is required")
	}
	shards, trials, duplicates, err := core.MergeShards(cfg.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("hrmsim: %w", err)
	}
	meta := shards[0].Meta
	spec, err := specFor(ErrorType(meta.Error))
	if err != nil {
		return nil, nil, err
	}
	res := core.ResultFromTrials(meta.App, spec, meta.Trials, trials)

	info := &MergeInfo{
		ConfigHash: core.ConfigHash(meta),
		Shards:     make([]MergeShardInfo, 0, len(shards)),
		Records:    len(trials),
		Duplicates: duplicates,
		Missing:    meta.Trials - len(trials),
	}
	var shardSnaps []obsv.Snapshot
	for _, sh := range shards {
		p := sh.Progress()
		info.Shards = append(info.Shards, MergeShardInfo{
			ShardInfo: ShardInfo{Index: sh.Meta.Shard().Index, Count: sh.Meta.Shard().Count,
				TrialLo: p.TrialLo, TrialHi: p.TrialHi},
			Journal:     filepath.Join(cfg.Dir, sh.Name),
			Completed:   p.Completed,
			Aborted:     p.Aborted,
			Interrupted: p.Interrupted,
		})
		if sh.Final.Metrics != nil {
			shardSnaps = append(shardSnaps, *sh.Final.Metrics)
		}
	}
	if len(shardSnaps) > 0 {
		merged := obsv.MergeSnapshots(shardSnaps...)
		info.Metrics = &merged
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("merge_shards_total").Add(int64(len(info.Shards)))
		cfg.Metrics.Counter("merge_records_total").Add(int64(info.Records))
		cfg.Metrics.Counter("merge_duplicate_trials_total").Add(int64(info.Duplicates))
		cfg.Metrics.Counter("merge_missing_trials_total").Add(int64(info.Missing))
	}

	out, err := newCharacterization(
		App(meta.App), ErrorType(meta.Error), Region(meta.Region), meta.Trials, res)
	if err != nil {
		return nil, nil, err
	}
	return out, info, nil
}
