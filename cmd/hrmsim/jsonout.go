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

	"hrmsim"
	"hrmsim/internal/obsv"
	"hrmsim/internal/stats"
)

// schemaVersion identifies the JSON result schema emitted by -json.
const schemaVersion = 2

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
	// Shard identifies which slice of a sharded campaign this result
	// covers (characterize -shard; see SHARDING.md).
	Shard *hrmsim.ShardInfo `json:"shard,omitempty"`
	// Merged describes the shard set a merged result was assembled from
	// (merge; see SHARDING.md).
	Merged *hrmsim.MergeInfo `json:"merged,omitempty"`
}

// encode stamps the schema version and tool name and renders the
// envelope as one indented, newline-terminated document.
func (env envelope) encode() ([]byte, error) {
	env.SchemaVersion = schemaVersion
	env.Tool = "hrmsim"
	b, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encoding %s result: %w", env.Command, err)
	}
	return append(b, '\n'), nil
}

// emitJSON writes one envelope to stdout.
func emitJSON(env envelope) error {
	b, err := env.encode()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
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

// planJSON is the `plan -json` result: the echoed flags, then the
// search's own fields.
type planJSON struct {
	TargetAvailability float64 `json:"target_availability"`
	ErrorsPerMonth     float64 `json:"errors_per_month"`
	*hrmsim.PlanResult
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

// lifetimeJSON is the `lifetime -json` result: the echoed flags, then
// the simulation's own fields.
type lifetimeJSON struct {
	Protection     string  `json:"protection"`
	ErrorsPerMonth float64 `json:"errors_per_month"`
	Hours          int     `json:"hours"`
	*hrmsim.LifetimeResult
}

// tablesJSON is the `tables -json` result.
type tablesJSON struct {
	Experiments []*hrmsim.ExperimentReport `json:"experiments"`
}
