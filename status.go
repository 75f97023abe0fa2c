package hrmsim

import (
	"errors"
	"fmt"
	"time"

	"hrmsim/internal/core"
	"hrmsim/internal/obsv"
)

// ErrNoStatus reports a campaign directory with no shard journal yet.
// Pollers (`hrmsim status -watch`) treat it as "not yet", not a failure.
var ErrNoStatus = errors.New("hrmsim: no shard journals (*.jsonl)")

// ShardStatusInfo is one shard's row of the fleet view: its coordinates,
// its progress as its journal records it (the Progress hook's record,
// embedded, so a field is declared once for both), and AgeSeconds, the
// age of the journal's last write when the view was assembled — the
// liveness signal that tells a straggling shard from a slow one.
type ShardStatusInfo struct {
	Index int `json:"index"`
	Count int `json:"count"`
	core.ShardProgress
	AgeSeconds float64 `json:"age_seconds"`
}

// FleetStatus is the cross-shard aggregate of a campaign directory's
// journals: the live (or final) fleet-wide view `hrmsim status`
// renders, and — through its tags — the `status -json` result. All
// counts are sums over the shards that have written a journal; Trials
// is the whole campaign's size, so Done < Trials either because work
// remains or because some shard has not started yet.
type FleetStatus struct {
	// ConfigHash and the campaign identity every shard agreed on.
	ConfigHash string    `json:"config_hash"`
	App        App       `json:"app"`
	Error      ErrorType `json:"error"`
	Region     Region    `json:"region"` // "" = all regions
	Trials     int       `json:"trials"`
	Seed       int64     `json:"seed"`
	// Done/Total and the disposition counts are sums over Shards (Total
	// can be less than Trials while shards are still starting).
	Done      int `json:"done"`
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Aborted   int `json:"aborted,omitempty"`
	Resumed   int `json:"resumed,omitempty"`
	// Outcomes sums the per-shard Fig. 1 taxonomy counts.
	Outcomes map[string]int `json:"outcomes"`
	// TrialsPerSec sums the running shards' rates, as a poller measured
	// them (`status -watch`; a journal holds none); EtaSeconds projects
	// the campaign's remaining trials at that rate.
	TrialsPerSec float64 `json:"trials_per_sec,omitempty"`
	EtaSeconds   float64 `json:"eta_seconds,omitempty"`
	// Adaptive reports an adaptive trial plan (campaigns with one are
	// unsharded). CIHalfWidth is the widest re-derived CI half-width;
	// Planned and TrialsSaved sum the shards' plan sizes and savings.
	Adaptive    bool    `json:"adaptive,omitempty"`
	CIHalfWidth float64 `json:"ci_half_width,omitempty"`
	Planned     int     `json:"planned_trials,omitempty"`
	TrialsSaved int     `json:"trials_saved,omitempty"`
	// Running counts shards whose journal has no trailer yet;
	// Interrupted counts shards whose trailer reports cancellation.
	Running     int `json:"running"`
	Interrupted int `json:"interrupted,omitempty"`
	// Shards holds each shard's row, ascending by index.
	Shards []ShardStatusInfo `json:"shards"`
	// Metrics is the obsv.MergeSnapshots aggregate of the trailers'
	// snapshots, as `hrmsim merge` computes it (nil when none has one).
	// It rides in the -json envelope, not the result.
	Metrics *obsv.Snapshot `json:"-"`
}

// LoadFleetStatus reads every shard journal in dir and aggregates it
// into the fleet view, live or dead alike. It validates that all
// journals belong to one campaign (core.LoadShardDir checks, for
// MergeShards too) and returns ErrNoStatus when the directory holds
// none.
func LoadFleetStatus(dir string) (*FleetStatus, error) {
	shards, err := core.LoadShardDir(dir)
	if err != nil {
		return nil, fmt.Errorf("hrmsim: %w", err)
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("%w in %s", ErrNoStatus, dir)
	}
	ref := shards[0].Meta
	fs := &FleetStatus{
		ConfigHash: core.ConfigHash(ref),
		App:        App(ref.App),
		Error:      ErrorType(ref.Error),
		Region:     Region(ref.Region),
		Trials:     ref.Trials,
		Seed:       ref.Seed,
		Outcomes:   make(map[string]int),
		Shards:     make([]ShardStatusInfo, 0, len(shards)),
	}
	now := time.Now()
	var snaps []obsv.Snapshot
	for _, sh := range shards {
		p := sh.Progress()
		fs.Shards = append(fs.Shards, ShardStatusInfo{
			Index:         sh.Meta.Shard().Index,
			Count:         sh.Meta.Shard().Count,
			ShardProgress: p,
			AgeSeconds:    now.Sub(sh.Written).Seconds(),
		})
		if p.Adaptive {
			fs.Adaptive = true
			fs.CIHalfWidth = max(fs.CIHalfWidth, p.CIHalfWidth)
			fs.Planned += p.PlannedTrials
			fs.TrialsSaved += p.TrialsSaved
		}
		fs.Done += p.Done
		fs.Total += p.Total
		fs.Completed += p.Completed
		fs.Aborted += p.Aborted
		fs.Resumed += p.Resumed
		for o, n := range p.Outcomes {
			fs.Outcomes[o] += n
		}
		if p.Running {
			fs.Running++
		}
		if p.Interrupted {
			fs.Interrupted++
		}
		if sh.Final != nil && sh.Final.Metrics != nil {
			snaps = append(snaps, *sh.Final.Metrics)
		}
	}
	if len(snaps) > 0 {
		merged := obsv.MergeSnapshots(snaps...)
		fs.Metrics = &merged
	}
	return fs, nil
}
