package hrmsim

import (
	"errors"
	"fmt"
	"time"

	"hrmsim/internal/core"
	"hrmsim/internal/obsv"
)

// ErrNoStatus reports a campaign directory with no shard status records
// — either the campaign runs without a status sink, or no shard has
// heartbeat yet. Pollers (`hrmsim status -watch`) treat it as "not yet",
// not as a failure.
var ErrNoStatus = errors.New("hrmsim: no shard status records (*.status.json)")

// ShardStatusInfo is one shard's row of the fleet view: its latest
// heartbeat under the row's own coordinate and timestamp keys. The
// progress block is the on-disk record's (core.ShardProgress), embedded,
// so a heartbeat field is declared once for both documents.
type ShardStatusInfo struct {
	// Index / Count are the shard coordinates.
	Index int `json:"index"`
	Count int `json:"count"`
	core.ShardProgress
	// UpdatedUnixNs is the host wall-clock instant of the heartbeat;
	// AgeSeconds its age when the view was assembled — the liveness
	// signal that tells a straggling shard from a slow one.
	UpdatedUnixNs int64   `json:"updated_unix_ns"`
	AgeSeconds    float64 `json:"age_seconds"`
}

// UpdatedAt returns the heartbeat instant as a time.Time.
func (s ShardStatusInfo) UpdatedAt() time.Time {
	return time.Unix(0, s.UpdatedUnixNs)
}

// FleetStatus is the cross-shard aggregate of a campaign directory's
// heartbeats: the live (or final) fleet-wide view `hrmsim status`
// renders, and — through its tags — the
// `status -json` result. All counts are sums over the shards that have
// reported; Trials is the whole campaign's size, so Done < Trials either
// because work remains or because some shard has not heartbeat yet.
type FleetStatus struct {
	// ConfigHash and the campaign identity every shard agreed on.
	ConfigHash string    `json:"config_hash"`
	App        App       `json:"app"`
	Error      ErrorType `json:"error"`
	Region     Region    `json:"region"` // "" = all regions
	Trials     int       `json:"trials"`
	Seed       int64     `json:"seed"`
	// Done/Total and the disposition counts are sums over Shards (Total
	// can be less than Trials while shards are still registering).
	Done      int `json:"done"`
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Aborted   int `json:"aborted,omitempty"`
	Resumed   int `json:"resumed,omitempty"`
	// Outcomes sums the per-shard Fig. 1 taxonomy counts.
	Outcomes map[string]int `json:"outcomes"`
	// TrialsPerSec sums the running shards' rates; EtaSeconds projects
	// the whole campaign's remaining trials at that rate (zero when
	// nothing is running).
	TrialsPerSec float64 `json:"trials_per_sec,omitempty"`
	EtaSeconds   float64 `json:"eta_seconds,omitempty"`
	// Adaptive reports that any shard runs under an adaptive trial
	// planner (in practice at most one: adaptive campaigns are
	// unsharded). CIHalfWidth is the widest reported CI half-width,
	// Planned sums the adaptive shards' current trial budgets, and
	// TrialsSaved sums the trials their stopping rules saved.
	Adaptive    bool    `json:"adaptive,omitempty"`
	CIHalfWidth float64 `json:"ci_half_width,omitempty"`
	Planned     int     `json:"planned_trials,omitempty"`
	TrialsSaved int     `json:"trials_saved,omitempty"`
	// Running counts shards whose latest record is live; Interrupted
	// counts shards whose final record reports cancellation.
	Running     int `json:"running"`
	Interrupted int `json:"interrupted,omitempty"`
	// Shards holds each shard's latest heartbeat, ascending by index.
	Shards []ShardStatusInfo `json:"shards"`
	// Metrics is the obsv.MergeSnapshots aggregate of every shard's
	// heartbeat snapshot — the same merge rule `hrmsim merge` applies to
	// the final records, so live and post-hoc metrics agree. Nil when no shard
	// reported metrics. It rides in the -json envelope, not the result.
	Metrics *obsv.Snapshot `json:"-"`
}

// LoadFleetStatus reads every shard status record in dir and aggregates
// it into the fleet view. It validates that all records belong to one
// campaign (core.LoadStatusDir checks, for MergeShards too) and returns
// ErrNoStatus when the directory holds none. The directory may be live
// (shards still writing; each read is atomic per record) or dead (final
// Running=false records) — the same view works for both. Each row's
// AgeSeconds is measured against the clock as read here.
func LoadFleetStatus(dir string) (*FleetStatus, error) {
	records, err := core.LoadStatusDir(dir)
	if err != nil {
		return nil, fmt.Errorf("hrmsim: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("%w in %s", ErrNoStatus, dir)
	}
	ref := records[0]
	fs := &FleetStatus{
		ConfigHash: ref.ConfigHash,
		App:        App(ref.Campaign.App),
		Error:      ErrorType(ref.Campaign.Error),
		Region:     Region(ref.Campaign.Region),
		Trials:     ref.Campaign.Trials,
		Seed:       ref.Campaign.Seed,
		Outcomes:   make(map[string]int),
		Shards:     make([]ShardStatusInfo, 0, len(records)),
	}
	now := time.Now()
	var snaps []obsv.Snapshot
	for _, st := range records {
		if st.Outcomes == nil {
			// A record from a writer that omitted the key on heartbeats
			// with no completed trial.
			st.Outcomes = map[string]int{}
		}
		fs.Shards = append(fs.Shards, ShardStatusInfo{
			Index:         st.ShardIndex,
			Count:         st.ShardCount,
			ShardProgress: st.ShardProgress,
			UpdatedUnixNs: st.WallUnixNanos,
			AgeSeconds:    now.Sub(time.Unix(0, st.WallUnixNanos)).Seconds(),
		})
		if st.Adaptive {
			fs.Adaptive = true
			if st.CIHalfWidth > fs.CIHalfWidth {
				fs.CIHalfWidth = st.CIHalfWidth
			}
			fs.Planned += st.PlannedTrials
			fs.TrialsSaved += st.TrialsSaved
		}
		fs.Done += st.Done
		fs.Total += st.Total
		fs.Completed += st.Completed
		fs.Aborted += st.Aborted
		fs.Resumed += st.Resumed
		for o, n := range st.Outcomes {
			fs.Outcomes[o] += n
		}
		if st.Running {
			fs.Running++
			fs.TrialsPerSec += st.TrialsPerSec
		}
		if st.Interrupted {
			fs.Interrupted++
		}
		if st.Metrics != nil {
			snaps = append(snaps, *st.Metrics)
		}
	}
	if rem := fs.Trials - fs.Done; rem > 0 && fs.TrialsPerSec > 0 {
		fs.EtaSeconds = float64(rem) / fs.TrialsPerSec
	}
	if len(snaps) > 0 {
		merged := obsv.MergeSnapshots(snaps...)
		fs.Metrics = &merged
	}
	return fs, nil
}
