package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hrmsim/internal/simmem"
)

// Outcome is a leaf of the paper's Fig. 1 memory error outcome taxonomy.
// The taxonomy is mutually exclusive and exhaustive.
type Outcome int

// Outcomes.
const (
	// OutcomeMaskedOverwrite: the first consumption of the erroneous
	// location was a write, so the error vanished without effect
	// (outcome 1).
	OutcomeMaskedOverwrite Outcome = iota + 1
	// OutcomeMaskedLogic: the error was read by the application but the
	// output still matched (outcome 2.1).
	OutcomeMaskedLogic
	// OutcomeIncorrect: the run completed but at least one response
	// differed from the golden output (outcome 2.2).
	OutcomeIncorrect
	// OutcomeCrash: the application or system crashed — a memory fault,
	// an aborted invariant, a hung request, or an uncorrectable machine
	// check (outcome 2.3).
	OutcomeCrash
	// OutcomeMaskedLatent: the erroneous location was never referenced
	// again during the run. The paper folds this into "masked" (no
	// change in application behaviour); it is kept distinct here for
	// analysis.
	OutcomeMaskedLatent
)

// Outcomes lists every taxonomy leaf in declaration order.
func Outcomes() []Outcome {
	return []Outcome{OutcomeMaskedOverwrite, OutcomeMaskedLogic,
		OutcomeIncorrect, OutcomeCrash, OutcomeMaskedLatent}
}

// String returns the outcome label.
func (o Outcome) String() string {
	switch o {
	case OutcomeMaskedOverwrite:
		return "masked-by-overwrite"
	case OutcomeMaskedLogic:
		return "masked-by-logic"
	case OutcomeIncorrect:
		return "incorrect-response"
	case OutcomeCrash:
		return "crash"
	case OutcomeMaskedLatent:
		return "masked-latent"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// MetricName returns the outcome label with dashes replaced by
// underscores, the form used in obsv metric names (OBSERVABILITY.md),
// e.g. campaign_outcome_masked_by_overwrite.
func (o Outcome) MetricName() string {
	return strings.ReplaceAll(o.String(), "-", "_")
}

// Tolerated reports whether the outcome leaves the application externally
// correct (the paper's definition of tolerance: outcomes 1 and 2.1).
func (o Outcome) Tolerated() bool {
	switch o {
	case OutcomeMaskedOverwrite, OutcomeMaskedLogic, OutcomeMaskedLatent:
		return true
	default:
		return false
	}
}

// firstAccessKind distinguishes how injected bytes were first touched.
type firstAccessKind int

const (
	firstNone firstAccessKind = iota
	firstLoad
	firstStore
)

// accessTracker watches the injected byte addresses and records the first
// post-injection access kind, which separates masked-by-overwrite from
// masked-by-logic. It observes the trial's accesses only until that
// answer: on its first hit it unregisters itself, so the rest of the
// trial runs without it. Until then its miss path must be O(1): the
// handful of injected addresses are kept as a sorted slice bounded by
// [min, max], and the overwhelming majority of accesses are rejected by
// the two bound comparisons alone. A trial whose error is never
// referenced keeps it to the end.
type accessTracker struct {
	as       *simmem.AddressSpace
	targets  []simmem.Addr // sorted ascending
	min, max simmem.Addr   // inclusive bounds of targets; min > max when empty
	first    firstAccessKind
}

var _ simmem.AccessObserver = (*accessTracker)(nil)

// newAccessTracker registers a tracker for addrs on as.
func newAccessTracker(as *simmem.AddressSpace, addrs []simmem.Addr) *accessTracker {
	t := &accessTracker{
		as:      as,
		targets: append([]simmem.Addr(nil), addrs...),
		min:     1,
		max:     0,
	}
	sort.Slice(t.targets, func(i, j int) bool { return t.targets[i] < t.targets[j] })
	if n := len(t.targets); n > 0 {
		t.min = t.targets[0]
		t.max = t.targets[n-1]
	}
	as.AddAccessObserver(t)
	return t
}

// ObserveAccess implements simmem.AccessObserver.
func (t *accessTracker) ObserveAccess(ev simmem.AccessEvent) {
	if t.first != firstNone {
		return
	}
	end := ev.Addr + simmem.Addr(ev.Len)
	if end <= t.min || ev.Addr > t.max {
		return
	}
	// First target >= ev.Addr; a hit iff it falls before the access end.
	i := sort.Search(len(t.targets), func(i int) bool { return t.targets[i] >= ev.Addr })
	if i < len(t.targets) && t.targets[i] < end {
		if ev.Kind == simmem.Store {
			t.first = firstStore
		} else {
			t.first = firstLoad
		}
		t.as.RemoveAccessObserver(t)
	}
}

// classify maps a finished trial's observations onto the taxonomy.
func classify(crashed bool, incorrect int, first firstAccessKind) Outcome {
	switch {
	case crashed:
		return OutcomeCrash
	case incorrect > 0:
		return OutcomeIncorrect
	case first == firstStore:
		return OutcomeMaskedOverwrite
	case first == firstLoad:
		return OutcomeMaskedLogic
	default:
		return OutcomeMaskedLatent
	}
}

// Disposition records how the supervisor disposed of a trial: ran to
// classification, or was given up on. It is orthogonal to the Fig. 1
// taxonomy — Outcome is only meaningful for completed trials, and
// aborted trials never enter the outcome counts, so a failing worker
// cannot perturb the paper's statistics.
type Disposition int

const (
	// DispositionCompleted: the trial ran to outcome classification.
	// The zero value, so results from before dispositions existed stay
	// valid.
	DispositionCompleted Disposition = iota
	// DispositionAborted: the supervisor gave the trial up because its
	// build, restore or injection failed, and it carries an AbortReason
	// instead of an Outcome. Journals written by earlier builds also hold
	// trials aborted by the since-deleted watchdogs, under the reasons
	// "deadline" and "op_budget"; they read back as aborted like any
	// other.
	DispositionAborted
)

// String returns the disposition label used in journals and JSON.
func (d Disposition) String() string {
	switch d {
	case DispositionCompleted:
		return "completed"
	case DispositionAborted:
		return "aborted"
	default:
		return fmt.Sprintf("disposition(%d)", int(d))
	}
}

// AbortReasonWorkerError is the abort reason label, used as the
// {reason} metric label and the journal abort_reason field, of a trial
// whose infrastructure (build, warmup, snapshot restore, injection)
// failed.
const AbortReasonWorkerError = "worker_error"

// TrialResult records one injection experiment (one pass around the
// paper's Fig. 2 loop).
type TrialResult struct {
	// Index is the trial's position in the campaign, which also selects
	// its deterministic seed.
	Index int
	// Disposition tells whether the trial completed (and the fields
	// below are meaningful) or was aborted (and only the Abort* fields
	// are set).
	Disposition Disposition
	// AbortReason is the machine-readable reason label of an aborted
	// trial: AbortReasonWorkerError, or in an earlier build's journal
	// "deadline" or "op_budget".
	AbortReason string
	// AbortDetail is the free-form abort description.
	AbortDetail string
	// Outcome is the Fig. 1 classification.
	Outcome Outcome
	// Region names the region injected into.
	Region string
	// Kind is the region's Table 2 classification.
	Kind simmem.RegionKind
	// InjectedAt is the virtual time of injection.
	InjectedAt time.Duration
	// EffectAt is the virtual time of the first crash or incorrect
	// response (zero for masked outcomes) — the Fig. 5a measurement.
	EffectAt time.Duration
	// Incorrect counts incorrect responses in the trial.
	Incorrect int
	// IncorrectAt holds the virtual times of incorrect responses
	// (capped at maxIncorrectTimes per trial) — the "periodically
	// incorrect" samples of Fig. 5a.
	IncorrectAt []time.Duration
	// Requests counts responses served before the trial ended.
	Requests int
	// EndedAt is the virtual time the trial stopped: the crash instant
	// for crashed trials, or the end of the workload otherwise. With
	// InjectedAt it gives each trial's observation horizon (Fig. 5a).
	EndedAt time.Duration
	// CrashReason holds the crash error text, if any.
	CrashReason string
	// CrashStack holds the sanitized goroutine stack when the crash came
	// from a recovered panic in application code (see sanitizeStack):
	// the panicking call chain with goroutine ids, argument values, and
	// frame offsets stripped, so it is deterministic across
	// parallelism, sharding, and resume.
	CrashStack string
}

// TimeToEffect returns the injection-to-effect latency for crash or
// incorrect outcomes.
func (t TrialResult) TimeToEffect() (time.Duration, bool) {
	if t.Outcome != OutcomeCrash && t.Outcome != OutcomeIncorrect {
		return 0, false
	}
	return t.EffectAt - t.InjectedAt, true
}
