package core

import (
	"fmt"

	"hrmsim/internal/stats"
)

// The trial-planning layer: the supervisor no longer hard-codes
// "dispatch indices 0..N-1" — it consults a TrialPlanner for the next
// index to run and, after every result, for a stop/continue verdict.
// FixedPlanner reproduces the classic fixed-N campaign bit-identically;
// AdaptivePlanner stops as soon as the Wilson CI half-width on the
// crash probability reaches a requested target, so trials flow to the
// cells whose vulnerability estimates are still uncertain instead of
// being spread uniformly.
//
// Determinism contract: a planner's dispatched index set must be a pure
// function of (its configuration, the trial results), never of worker
// parallelism or result arrival order. AdaptivePlanner guarantees this
// by evaluating its stopping rule only at precomputed boundaries, and
// only once the contiguous prefix below a boundary is fully resolved —
// so a campaign run at -parallelism 8 stops at exactly the same trial
// count as at -parallelism 1, and a resumed run replays to exactly the
// same verdicts as an uninterrupted one.

// PlanState is the planner's answer to "what should the supervisor do
// next?" (TrialPlanner.Next).
type PlanState int

const (
	// PlanDispatch: the returned index should run now.
	PlanDispatch PlanState = iota
	// PlanWait: nothing to dispatch until more in-flight results land
	// (the planner is holding at an evaluation boundary).
	PlanWait
	// PlanDone: the plan is exhausted; no further trials will run.
	PlanDone
)

// String returns the state name.
func (s PlanState) String() string {
	switch s {
	case PlanDispatch:
		return "dispatch"
	case PlanWait:
		return "wait"
	case PlanDone:
		return "done"
	default:
		return fmt.Sprintf("planstate(%d)", int(s))
	}
}

// PlannerDecision is one stop/continue verdict of an adaptive planner,
// evaluated over the fully-resolved trial prefix [0, Boundary). The
// supervisor journals the decision stream (see Journal.AppendDecision)
// so a resumed campaign's replay is auditable record-for-record.
type PlannerDecision struct {
	// Boundary is the evaluation boundary: every trial index in
	// [0, Boundary) had a result when the verdict was computed.
	Boundary int
	// Completed and Crashes count the classified trials in the prefix
	// and how many of them crashed — the stopping rule's observation.
	Completed int
	Crashes   int
	// HalfWidth is the Wilson CI half-width of the crash probability at
	// the rule's confidence level (1 when no trial has completed).
	HalfWidth float64
	// Target is the requested half-width.
	Target float64
	// Stop reports the campaign ends at this boundary; Exhausted marks
	// a stop forced by the MaxTrials budget rather than a reached
	// target.
	Stop      bool
	Exhausted bool
	// NextBoundary is where the rule will be evaluated next (0 when
	// Stop).
	NextBoundary int
	// Replayed marks a verdict re-derived from resumed journal records
	// during Start, as opposed to one computed from trials run fresh.
	Replayed bool
}

// TrialPlanner decides which trial indices a campaign runs and when it
// stops. The supervisor serializes all calls (planners need no internal
// locking) in this order: one Start, then interleaved Next/Observe/
// Budget/TakeDecisions until Next returns PlanDone and every dispatched
// trial has been observed.
type TrialPlanner interface {
	// Start resets the planner for a campaign owning indices [lo, hi)
	// of a trials-sized index space, seeding it with resumed results
	// from a previous interrupted run (keyed by index; may be nil).
	Start(lo, hi, trials int, resumed map[int]TrialResult) error
	// Next returns the next trial index to dispatch, or the reason
	// there is none (PlanWait / PlanDone).
	Next() (int, PlanState)
	// Observe feeds one finished trial (completed or aborted) back to
	// the planner. Every dispatched index is observed exactly once.
	Observe(tr TrialResult)
	// Budget returns the planner's current total-trial budget for the
	// owned range — the number of indices it intends to have results
	// for, including resumed ones — and whether that figure is final.
	// A fixed plan is final from the start; an adaptive plan's budget
	// grows boundary by boundary until the stopping rule fires.
	Budget() (total int, final bool)
	// TakeDecisions drains the stop/continue verdicts accumulated since
	// the previous call (nil for planners that make none).
	TakeDecisions() []PlannerDecision
}

// FixedPlanner is the classic campaign plan: every owned index runs
// exactly once, in ascending order, skipping resumed ones. It is the
// default (a nil CampaignConfig.Planner), and its dispatch sequence is
// bit-identical to the pre-planner engine — pinned by the lifecycle,
// resume, and shard-merge equivalence suites.
type FixedPlanner struct {
	lo, hi int
	next   int
	have   map[int]bool
}

// NewFixedPlanner returns the fixed-N plan.
func NewFixedPlanner() *FixedPlanner { return &FixedPlanner{} }

// Start implements TrialPlanner.
func (p *FixedPlanner) Start(lo, hi, trials int, resumed map[int]TrialResult) error {
	p.lo, p.hi = lo, hi
	p.next = lo
	p.have = nil
	if len(resumed) > 0 {
		p.have = make(map[int]bool, len(resumed))
		for i := range resumed {
			p.have[i] = true
		}
	}
	return nil
}

// Next implements TrialPlanner.
func (p *FixedPlanner) Next() (int, PlanState) {
	for p.next < p.hi {
		i := p.next
		p.next++
		if !p.have[i] {
			return i, PlanDispatch
		}
	}
	return 0, PlanDone
}

// Observe implements TrialPlanner (a fixed plan ignores results).
func (p *FixedPlanner) Observe(TrialResult) {}

// Budget implements TrialPlanner: the whole owned range, final.
func (p *FixedPlanner) Budget() (int, bool) { return p.hi - p.lo, true }

// TakeDecisions implements TrialPlanner (a fixed plan makes none).
func (p *FixedPlanner) TakeDecisions() []PlannerDecision { return nil }

// AdaptivePlanner runs trials in deterministic batches and stops the
// campaign once the Wilson CI half-width of the crash probability
// reaches the rule's target (or the MaxTrials budget is exhausted).
//
// Mechanics: indices dispatch in ascending order up to the current
// evaluation boundary; the stopping rule is evaluated exactly when the
// contiguous prefix [0, boundary) is fully resolved, and a "continue"
// verdict advances the boundary along the rule's schedule. Because
// every verdict is computed over a complete prefix, the dispatched set
// is independent of parallelism and arrival order — and an interrupted
// run can never have dispatched past the boundary an uninterrupted run
// would have stopped at, which is what makes -resume bit-identical.
//
// Adaptive plans require the whole index space (lo == 0, hi == trials):
// a worker shard sees only its slice of results, so a shard-local CI
// would be computed over a different prefix than the campaign's.
// Sharded adaptive campaigns are therefore rejected at Start.
type AdaptivePlanner struct {
	// Rule is the sequential stopping rule (target half-width,
	// confidence level, min/max-trials guard rails). MaxTrials is
	// clamped to the campaign size at Start.
	Rule stats.SequentialStopping

	trials    int
	boundary  int // dispatch limit: indices < boundary may run
	next      int // next index to consider for dispatch
	contig    int // first index without a result
	have      []bool
	completed []bool // have && classified (aborted trials carry no outcome)
	crashed   []bool
	stopped   bool
	exhausted bool
	replaying bool
	decisions []PlannerDecision
	started   bool
}

// Defaults for the adaptive stopping rule, shared by every caller that
// builds one (the facade's Characterize, the experiment suite's cells).
const (
	// CILevel is the paper's 90% confidence level: the rule's Wilson
	// interval and every reported crash-probability bound use it.
	CILevel = 0.90
	// DefaultAdaptiveMinTrials is the first CI evaluation boundary when
	// the caller names none: enough observations that an early all-quiet
	// or all-crash prefix cannot stop a campaign on noise alone. Start
	// clamps it to the budget.
	DefaultAdaptiveMinTrials = 30
)

// NewAdaptivePlanner returns an adaptive plan for the given stopping
// rule.
func NewAdaptivePlanner(rule stats.SequentialStopping) *AdaptivePlanner {
	return &AdaptivePlanner{Rule: rule}
}

// Start implements TrialPlanner. Resumed results replay through the
// same boundary evaluations a live run would have made (verdicts marked
// Replayed), so the plan continues from exactly where the interrupted
// run stopped.
func (p *AdaptivePlanner) Start(lo, hi, trials int, resumed map[int]TrialResult) error {
	if lo != 0 || hi != trials {
		return fmt.Errorf("core: the adaptive planner needs the whole trial index space, not shard [%d,%d) of %d — run adaptive campaigns unsharded", lo, hi, trials)
	}
	rule := p.Rule
	if rule.MaxTrials <= 0 || rule.MaxTrials > trials {
		rule.MaxTrials = trials
	}
	if rule.MinTrials > rule.MaxTrials {
		rule.MinTrials = rule.MaxTrials
	}
	if err := rule.Validate(); err != nil {
		return err
	}
	p.Rule = rule
	p.trials = trials
	p.boundary = rule.FirstBoundary()
	p.next = 0
	p.contig = 0
	p.have = make([]bool, trials)
	p.completed = make([]bool, trials)
	p.crashed = make([]bool, trials)
	p.stopped = false
	p.exhausted = false
	p.decisions = nil
	p.started = true

	p.replaying = true
	for i, tr := range resumed {
		p.record(i, tr)
	}
	p.advance()
	p.replaying = false
	return nil
}

// record stores one result without evaluating boundaries.
func (p *AdaptivePlanner) record(i int, tr TrialResult) {
	if i < 0 || i >= p.trials || p.have[i] {
		return
	}
	p.have[i] = true
	if tr.Disposition == DispositionCompleted {
		p.completed[i] = true
		p.crashed[i] = tr.Outcome == OutcomeCrash
	}
	for p.contig < p.trials && p.have[p.contig] {
		p.contig++
	}
}

// advance evaluates every boundary the resolved prefix has reached.
func (p *AdaptivePlanner) advance() {
	for !p.stopped && p.contig >= p.boundary {
		p.evaluate()
	}
}

// evaluate computes one stop/continue verdict at the current boundary.
func (p *AdaptivePlanner) evaluate() {
	completed, crashes := 0, 0
	for i := 0; i < p.boundary; i++ {
		if p.completed[i] {
			completed++
			if p.crashed[i] {
				crashes++
			}
		}
	}
	stop, half, err := p.Rule.ShouldStop(crashes, completed)
	if err != nil {
		// Unreachable (counts are internally consistent), but never
		// stall the campaign: treat as "continue".
		stop, half = false, 1
	}
	d := PlannerDecision{
		Boundary:  p.boundary,
		Completed: completed,
		Crashes:   crashes,
		HalfWidth: half,
		Target:    p.Rule.TargetHalfWidth,
		Stop:      stop,
		Replayed:  p.replaying,
	}
	switch {
	case stop:
		p.stopped = true
	case p.boundary >= p.Rule.MaxTrials:
		// Budget exhausted: stop without having reached the target.
		d.Stop, d.Exhausted = true, true
		p.stopped, p.exhausted = true, true
	default:
		d.NextBoundary = p.Rule.NextBoundary(p.boundary)
		p.boundary = d.NextBoundary
	}
	p.decisions = append(p.decisions, d)
}

// Next implements TrialPlanner.
func (p *AdaptivePlanner) Next() (int, PlanState) {
	limit := p.boundary
	if p.stopped {
		// No new work past what the verdict covered; anything below the
		// boundary is already resolved (a verdict needs the full
		// prefix), so this loop cannot dispatch after a stop.
		limit = p.contig
	}
	for p.next < limit {
		i := p.next
		p.next++
		if !p.have[i] {
			return i, PlanDispatch
		}
	}
	if p.stopped {
		return 0, PlanDone
	}
	return 0, PlanWait
}

// Observe implements TrialPlanner.
func (p *AdaptivePlanner) Observe(tr TrialResult) {
	p.record(tr.Index, tr)
	p.advance()
}

// Budget implements TrialPlanner: the current boundary — the trial
// count the plan has committed to so far — final once the stopping rule
// has fired.
func (p *AdaptivePlanner) Budget() (int, bool) {
	if !p.started {
		return 0, false
	}
	return p.boundary, p.stopped
}

// TakeDecisions implements TrialPlanner.
func (p *AdaptivePlanner) TakeDecisions() []PlannerDecision {
	out := p.decisions
	p.decisions = nil
	return out
}
