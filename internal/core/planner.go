package core

import "hrmsim/internal/stats"

// A campaign runs its plan segment by segment (supervisor.run). The
// fixed plan is one segment, the owned range. An adaptive plan's
// segments end at the stopping rule's boundaries; after each one the
// supervisor evaluates the rule over the complete prefix [0, boundary)
// and either stops or opens the next segment. Every verdict is a pure
// function of (rule, trial results), so a campaign stops at the same
// trial count at any parallelism, and a resumed run re-derives the
// interrupted run's verdicts from its trial records.

// AdaptivePlanner selects the adaptive plan for a campaign: it stops
// once the Wilson CI half-width of the crash probability reaches the
// rule's target, or at the rule's MaxTrials budget. An adaptive plan
// needs the whole index space (a shard sees only its slice of the
// prefix), so RunContext rejects it under a shard spec.
type AdaptivePlanner struct {
	// Rule is the sequential stopping rule (target half-width,
	// confidence level, min/max-trials guard rails). MaxTrials is
	// clamped to the campaign size.
	Rule stats.SequentialStopping
}

// Defaults for the adaptive stopping rule, shared by every caller that
// builds one (the facade's Characterize, the experiment suite's cells).
const (
	// CILevel is the paper's 90% confidence level: the rule's Wilson
	// interval and every reported crash-probability bound use it.
	CILevel = 0.90
	// DefaultAdaptiveMinTrials is the first CI evaluation boundary when
	// the caller names none: enough observations that an early all-quiet
	// or all-crash prefix cannot stop a campaign on noise alone. It is
	// clamped to the budget.
	DefaultAdaptiveMinTrials = 30
)

// NewAdaptivePlanner returns an adaptive plan for the given stopping
// rule.
func NewAdaptivePlanner(rule stats.SequentialStopping) *AdaptivePlanner {
	return &AdaptivePlanner{Rule: rule}
}

// clampRule returns rule clamped to a campaign of the given size.
func clampRule(rule stats.SequentialStopping, trials int) (stats.SequentialStopping, error) {
	if rule.MaxTrials <= 0 || rule.MaxTrials > trials {
		rule.MaxTrials = trials
	}
	if rule.MinTrials > rule.MaxTrials {
		rule.MinTrials = rule.MaxTrials
	}
	return rule, rule.Validate()
}

// verdict is one stop/continue decision of an adaptive plan, evaluated
// over the fully resolved prefix [0, boundary).
type verdict struct {
	boundary int
	// halfWidth is the Wilson CI half-width of the crash probability (1
	// when no trial of the prefix completed).
	halfWidth float64
	// stop ends the campaign at boundary; exhausted marks a stop forced
	// by the MaxTrials budget rather than a reached target.
	stop, exhausted bool
	// replayed marks a verdict re-derived from resumed trial records,
	// before this run dispatched a trial of its own.
	replayed bool
}

// evaluate applies rule to the prefix results[:len(have)], every index
// of which has a result (aborted trials carry no outcome and are not
// counted).
func evaluate(rule stats.SequentialStopping, results []TrialResult, have []bool) verdict {
	completed, crashes := 0, 0
	for i, ok := range have {
		if ok && results[i].Disposition == DispositionCompleted {
			completed++
			if results[i].Outcome == OutcomeCrash {
				crashes++
			}
		}
	}
	stop, half, err := rule.ShouldStop(crashes, completed)
	if err != nil {
		// Unreachable (the counts are consistent), but never stall the
		// campaign: treat as "continue".
		stop, half = false, 1
	}
	v := verdict{boundary: len(have), halfWidth: half, stop: stop}
	if !stop && v.boundary >= rule.MaxTrials {
		v.stop, v.exhausted = true, true
	}
	return v
}

// replayPlan re-derives an adaptive plan from trial records, boundary by
// boundary as the supervisor evaluates it: the plan's current extent,
// the latest CI half-width verdict (1 before the first boundary) and
// whether the rule has stopped.
func replayPlan(rule stats.SequentialStopping, trials int, recs map[int]TrialResult) (end int, halfWidth float64, stop bool) {
	rule, err := clampRule(rule, trials)
	if err != nil {
		return trials, 1, false
	}
	results := make([]TrialResult, trials)
	have := make([]bool, trials)
	for i, tr := range recs {
		results[i], have[i] = tr, true
	}
	end, halfWidth = rule.FirstBoundary(), 1
	for next := 0; ; end = rule.NextBoundary(end) {
		for ; next < end; next++ {
			if !have[next] {
				return end, halfWidth, false
			}
		}
		v := evaluate(rule, results[:end], have[:end])
		if halfWidth = v.halfWidth; v.stop {
			return end, halfWidth, true
		}
	}
}
