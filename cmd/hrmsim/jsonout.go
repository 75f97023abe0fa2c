// JSON output mode: every subcommand can emit its result as a single
// machine-readable JSON document on stdout instead of rendered text. The
// envelope and every field below are a stable, versioned contract
// documented in OBSERVABILITY.md — bump schemaVersion on any breaking
// change (renamed/removed field or changed meaning; additions are
// backward compatible and do not bump).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hrmsim"
	"hrmsim/internal/evtrace"
	"hrmsim/internal/obsv"
	"hrmsim/internal/stats"
)

// schemaVersion identifies the JSON result schema emitted by -json.
const schemaVersion = 1

// envelope wraps every -json result.
type envelope struct {
	SchemaVersion int    `json:"schema_version"`
	Tool          string `json:"tool"`
	Command       string `json:"command"`
	// Interrupted is set when the command was cancelled (SIGINT/SIGTERM)
	// and the result below is partial — for characterize, the aggregates
	// over the trials that finished before the interrupt.
	Interrupted bool `json:"interrupted,omitempty"`
	Result      any  `json:"result"`
	// Metrics holds the obsv snapshot of instrumented commands
	// (characterize), mirroring what kvserve serves at /metrics.
	Metrics *obsv.Snapshot `json:"metrics,omitempty"`
	// Trace holds the flight-recorder dumps of traced commands
	// (characterize): the event tails of every trial that ended in
	// crash or incorrect-response (schema: OBSERVABILITY.md, "Event
	// tracing").
	Trace *traceJSON `json:"trace,omitempty"`
	// Shard identifies which slice of a sharded campaign this result
	// covers (characterize -shard; see SHARDING.md).
	Shard *hrmsim.ShardInfo `json:"shard,omitempty"`
	// Merged describes the shard set a merged result was assembled from
	// (merge, characterize -coordinator; see SHARDING.md).
	Merged *mergedJSON `json:"merged,omitempty"`
}

// mergedJSON is the envelope's merge-provenance section.
type mergedJSON struct {
	ConfigHash string                  `json:"config_hash"`
	Shards     []hrmsim.MergeShardInfo `json:"shards"`
	Records    int                     `json:"records"`
	Duplicates int                     `json:"duplicates,omitempty"`
	Missing    int                     `json:"missing,omitempty"`
}

// envelopeOption customizes optional envelope sections.
type envelopeOption func(*envelope)

// withShard attaches the shard-coordinates section (nil = no-op).
func withShard(s *hrmsim.ShardInfo) envelopeOption {
	return func(e *envelope) { e.Shard = s }
}

// withMerged attaches the merge-provenance section (nil = no-op).
func withMerged(info *hrmsim.MergeInfo) envelopeOption {
	return func(e *envelope) {
		if info == nil {
			return
		}
		e.Merged = &mergedJSON{
			ConfigHash: info.ConfigHash,
			// Copied onto an empty slice so no shards encodes as [].
			Shards:     append([]hrmsim.MergeShardInfo{}, info.Shards...),
			Records:    info.Records,
			Duplicates: info.Duplicates,
			Missing:    info.Missing,
		}
	}
}

// fleetStatusJSON is the `status -json` (and coordinator /statusz)
// result: the cross-shard aggregate of a campaign directory's
// heartbeat records plus every shard's latest record.
type fleetStatusJSON struct {
	ConfigHash string `json:"config_hash"`
	App        string `json:"app"`
	Error      string `json:"error"`
	Region     string `json:"region"` // "" = all regions
	Trials     int    `json:"trials"`
	Seed       int64  `json:"seed"`
	// Done/Total and the disposition counts are sums over the shards
	// that have reported (Total < Trials while shards are registering).
	Done      int `json:"done"`
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Aborted   int `json:"aborted,omitempty"`
	Resumed   int `json:"resumed,omitempty"`
	// Outcomes sums the per-shard Fig. 1 taxonomy counts so far.
	Outcomes     map[string]int `json:"outcomes"`
	TrialsPerSec float64        `json:"trials_per_sec,omitempty"`
	EtaSeconds   float64        `json:"eta_seconds,omitempty"`
	// Adaptive planner telemetry (absent for fixed-plan campaigns):
	// the widest reported CI half-width, the summed current trial
	// budget, and the trials the stopping rules saved so far.
	Adaptive      bool    `json:"adaptive,omitempty"`
	CIHalfWidth   float64 `json:"ci_half_width,omitempty"`
	PlannedTrials int     `json:"planned_trials,omitempty"`
	TrialsSaved   int     `json:"trials_saved,omitempty"`
	// Running / Interrupted count shards in each state.
	Running     int               `json:"running"`
	Interrupted int               `json:"interrupted,omitempty"`
	Shards      []shardStatusJSON `json:"shards"`
}

// shardStatusJSON is one shard's latest heartbeat in the fleet view.
type shardStatusJSON struct {
	Index          int            `json:"index"`
	Count          int            `json:"count"`
	TrialLo        int            `json:"trial_lo"`
	TrialHi        int            `json:"trial_hi"`
	Done           int            `json:"done"`
	Total          int            `json:"total"`
	Completed      int            `json:"completed"`
	Aborted        int            `json:"aborted,omitempty"`
	Resumed        int            `json:"resumed,omitempty"`
	Outcomes       map[string]int `json:"outcomes"`
	TrialsPerSec   float64        `json:"trials_per_sec,omitempty"`
	EtaSeconds     float64        `json:"eta_seconds,omitempty"`
	ElapsedSeconds float64        `json:"elapsed_seconds,omitempty"`
	// Adaptive planner telemetry, mirroring the shard's heartbeat
	// record (absent for fixed-plan shards).
	Adaptive      bool    `json:"adaptive,omitempty"`
	CIHalfWidth   float64 `json:"ci_half_width,omitempty"`
	PlannedTrials int     `json:"planned_trials,omitempty"`
	PlanFinal     bool    `json:"plan_final,omitempty"`
	TrialsSaved   int     `json:"trials_saved,omitempty"`
	Running       bool    `json:"running"`
	Interrupted   bool    `json:"interrupted,omitempty"`
	// UpdatedUnixNs is the heartbeat instant; AgeSeconds its age at
	// render time — the liveness signal straggler detection keys on.
	UpdatedUnixNs int64   `json:"updated_unix_ns"`
	AgeSeconds    float64 `json:"age_seconds"`
}

func toFleetJSON(fs *hrmsim.FleetStatus, now time.Time) fleetStatusJSON {
	out := fleetStatusJSON{
		ConfigHash:    fs.ConfigHash,
		App:           string(fs.App),
		Error:         string(fs.Error),
		Region:        string(fs.Region),
		Trials:        fs.Trials,
		Seed:          fs.Seed,
		Done:          fs.Done,
		Total:         fs.Total,
		Completed:     fs.Completed,
		Aborted:       fs.Aborted,
		Resumed:       fs.Resumed,
		Outcomes:      fs.Outcomes,
		TrialsPerSec:  fs.TrialsPerSec,
		EtaSeconds:    fs.ETA.Seconds(),
		Adaptive:      fs.Adaptive,
		CIHalfWidth:   fs.CIHalfWidth,
		PlannedTrials: fs.Planned,
		TrialsSaved:   fs.TrialsSaved,
		Running:       fs.Running,
		Interrupted:   fs.Interrupted,
		Shards:        []shardStatusJSON{},
	}
	if out.Outcomes == nil {
		out.Outcomes = map[string]int{}
	}
	for _, sh := range fs.Shards {
		out.Shards = append(out.Shards, shardStatusJSON{
			Index:          sh.Index,
			Count:          sh.Count,
			TrialLo:        sh.TrialLo,
			TrialHi:        sh.TrialHi,
			Done:           sh.Done,
			Total:          sh.Total,
			Completed:      sh.Completed,
			Aborted:        sh.Aborted,
			Resumed:        sh.Resumed,
			Outcomes:       sh.Outcomes,
			TrialsPerSec:   sh.TrialsPerSec,
			EtaSeconds:     sh.ETA.Seconds(),
			ElapsedSeconds: sh.Elapsed.Seconds(),
			Adaptive:       sh.Adaptive,
			CIHalfWidth:    sh.CIHalfWidth,
			PlannedTrials:  sh.Planned,
			PlanFinal:      sh.PlanFinal,
			TrialsSaved:    sh.TrialsSaved,
			Running:        sh.Running,
			Interrupted:    sh.Interrupted,
			UpdatedUnixNs:  sh.UpdatedAt.UnixNano(),
			AgeSeconds:     sh.Age(now).Seconds(),
		})
	}
	return out
}

// traceJSON is the envelope's event-tracing section.
type traceJSON struct {
	// SchemaVersion is the evtrace event schema version.
	SchemaVersion int `json:"schema_version"`
	// FlightRecorderDumps holds the last events of each crash or
	// incorrect-response trial, in trial order.
	FlightRecorderDumps []evtrace.Dump `json:"flight_recorder_dumps"`
	// DumpsSkipped counts qualifying trials beyond the dump budget.
	DumpsSkipped int `json:"dumps_skipped,omitempty"`
}

// toTraceJSON converts a flight recorder's retained dumps (nil recorder
// or no dumps → nil, omitting the envelope field).
func toTraceJSON(rec *evtrace.Recorder) *traceJSON {
	if rec == nil {
		return nil
	}
	dumps := rec.Dumps()
	if len(dumps) == 0 && rec.Skipped() == 0 {
		return nil
	}
	return &traceJSON{
		SchemaVersion:       evtrace.SchemaVersion,
		FlightRecorderDumps: dumps,
		DumpsSkipped:        rec.Skipped(),
	}
}

// emitJSON writes one indented envelope to stdout.
func emitJSON(command string, interrupted bool, result any, metrics *obsv.Snapshot, trace *traceJSON, opts ...envelopeOption) error {
	env := envelope{
		SchemaVersion: schemaVersion,
		Tool:          "hrmsim",
		Command:       command,
		Interrupted:   interrupted,
		Result:        result,
		Metrics:       metrics,
		Trace:         trace,
	}
	for _, opt := range opts {
		opt(&env)
	}
	b, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s result: %w", command, err)
	}
	_, err = fmt.Fprintln(os.Stdout, string(b))
	return err
}

// characterizeJSON is the `characterize -json` result.
type characterizeJSON struct {
	App                    string         `json:"app"`
	Error                  string         `json:"error"`
	Region                 string         `json:"region"` // "" = all regions
	Trials                 int            `json:"trials"`
	Parallelism            int            `json:"parallelism"`
	CrashProbability       float64        `json:"crash_probability"`
	CrashCILow             float64        `json:"crash_ci_low"`
	CrashCIHigh            float64        `json:"crash_ci_high"`
	ToleratedProbability   float64        `json:"tolerated_probability"`
	IncorrectPerBillion    float64        `json:"incorrect_per_billion"`
	MaxIncorrectPerBillion float64        `json:"max_incorrect_per_billion"`
	Outcomes               map[string]int `json:"outcomes"`
	// Adaptive-plan fields, present only when the campaign ran with
	// -target-ci: the requested CI half-width target, the trial count
	// the stopping rule settled on, and the budget trials it saved.
	TargetCI                float64        `json:"target_ci,omitempty"`
	PlannedTrials           int            `json:"planned_trials,omitempty"`
	TrialsSaved             int            `json:"trials_saved,omitempty"`
	Interrupted             bool           `json:"interrupted,omitempty"`
	CompletedTrials         int            `json:"completed_trials"`
	AbortedTrials           int            `json:"aborted_trials,omitempty"`
	ResumedTrials           int            `json:"resumed_trials,omitempty"`
	CrashMinutes            []float64      `json:"crash_minutes"`
	IncorrectMinutes        []float64      `json:"incorrect_minutes"`
	AllIncorrectMinutes     []float64      `json:"all_incorrect_minutes"`
	CrashMinutesSummary     *stats.Summary `json:"crash_minutes_summary,omitempty"`
	IncorrectMinutesSummary *stats.Summary `json:"incorrect_minutes_summary,omitempty"`
}

// summarize returns a Summary pointer, or nil for an empty sample.
func summarize(xs []float64) *stats.Summary {
	s, err := stats.Summarize(xs)
	if err != nil {
		return nil
	}
	return &s
}

// nonNil returns xs, or an empty (non-null in JSON) slice.
func nonNil(xs []float64) []float64 {
	if xs == nil {
		return []float64{}
	}
	return xs
}

func toCharacterizeJSON(c *hrmsim.Characterization) characterizeJSON {
	out := characterizeJSON{
		App:                     string(c.App),
		Error:                   string(c.Error),
		Region:                  string(c.Region),
		Trials:                  c.Trials,
		Parallelism:             c.Parallelism,
		CrashProbability:        c.CrashProbability,
		CrashCILow:              c.CrashCILow,
		CrashCIHigh:             c.CrashCIHigh,
		ToleratedProbability:    c.ToleratedProbability,
		IncorrectPerBillion:     c.IncorrectPerBillion,
		MaxIncorrectPerBillion:  c.MaxIncorrectPerBillion,
		Outcomes:                c.Outcomes,
		Interrupted:             c.Interrupted,
		CompletedTrials:         c.Completed,
		AbortedTrials:           c.Aborted,
		ResumedTrials:           c.Resumed,
		CrashMinutes:            nonNil(c.CrashMinutes),
		IncorrectMinutes:        nonNil(c.IncorrectMinutes),
		AllIncorrectMinutes:     nonNil(c.AllIncorrectMinutes),
		CrashMinutesSummary:     summarize(c.CrashMinutes),
		IncorrectMinutesSummary: summarize(c.IncorrectMinutes),
	}
	if c.TargetCI > 0 {
		out.TargetCI = c.TargetCI
		out.PlannedTrials = c.Planned
		out.TrialsSaved = c.TrialsSaved
	}
	return out
}

// designspaceJSON is the `designspace -json` result.
type designspaceJSON struct {
	Rows []hrmsim.DesignRow `json:"rows"`
}

// planJSON is the `plan -json` result.
type planJSON struct {
	TargetAvailability float64           `json:"target_availability"`
	ErrorsPerMonth     float64           `json:"errors_per_month"`
	Considered         int               `json:"considered"`
	Feasible           int               `json:"feasible"`
	Best               hrmsim.DesignRow  `json:"best"`
	BestMapping        map[string]string `json:"best_mapping"`
}

// tolerableJSON is the `tolerable -json` result.
type tolerableJSON struct {
	Rows []tolerableRowJSON `json:"rows"`
}

type tolerableRowJSON struct {
	Application      string              `json:"application"`
	CrashProbability float64             `json:"crash_probability"`
	Targets          []tolerableCellJSON `json:"targets"`
}

type tolerableCellJSON struct {
	AvailabilityTarget      float64 `json:"availability_target"`
	TolerableErrorsPerMonth float64 `json:"tolerable_errors_per_month"`
}

// lifetimeJSON is the `lifetime -json` result.
type lifetimeJSON struct {
	Protection          string  `json:"protection"`
	ErrorsPerMonth      float64 `json:"errors_per_month"`
	Hours               int     `json:"hours"`
	ErrorsInjected      int     `json:"errors_injected"`
	Crashes             int     `json:"crashes"`
	DowntimeMinutes     float64 `json:"downtime_minutes"`
	Availability        float64 `json:"availability"`
	Requests            int     `json:"requests"`
	Incorrect           int     `json:"incorrect"`
	IncorrectPerMillion float64 `json:"incorrect_per_million"`
	ScrubPasses         int     `json:"scrub_passes"`
	ScrubCorrected      int     `json:"scrub_corrected"`
}

// tablesJSON is the `tables -json` result.
type tablesJSON struct {
	Experiments []*hrmsim.ExperimentReport `json:"experiments"`
}
