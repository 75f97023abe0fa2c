package chaos

import (
	"fmt"
	"strings"
)

// VerdictSchemaVersion identifies the JSON layout of Verdict. Bump on any
// breaking change to the serialized shape.
const VerdictSchemaVersion = 2

// PhaseReport is the measured window for one phase: client-side traffic
// deltas, server-side protection deltas, and the derived signal values
// the SLOs are evaluated against.
type PhaseReport struct {
	Phase string `json:"phase"`
	// Wall-clock measurements: reported, never in Signals, never gating,
	// and the only fields that differ between two runs of one seed.
	DurationMs int64   `json:"duration_ms"`
	WallP50Us  float64 `json:"wall_p50_us,omitempty"`
	WallP99Us  float64 `json:"wall_p99_us,omitempty"`
	// Virtual-clock positions of the phase boundaries (server vnow).
	StartVirtualMs int64 `json:"start_virtual_ms"`
	EndVirtualMs   int64 `json:"end_virtual_ms"`

	// Client-side deltas (from the kvload_* counters).
	Ops         int64 `json:"ops"`
	Gets        int64 `json:"gets"`
	Sets        int64 `json:"sets"`
	Errors      int64 `json:"errors"`
	WrongValues int64 `json:"wrong_values"`
	StaleValues int64 `json:"stale_values"`

	// Fault-schedule and server-side deltas.
	Injections    int64 `json:"injections"`
	Corrected     int64 `json:"corrected"`
	Uncorrectable int64 `json:"uncorrectable"`
	Recovered     int64 `json:"recovered"`
	Retired       int64 `json:"retired"`

	// Signals holds every signal measurable in this window (finite values
	// only; an unmeasurable signal is absent and explained in the SLO
	// result that needed it).
	Signals map[string]float64 `json:"signals"`
}

// SLOResult is the outcome of evaluating one SLO in one phase.
type SLOResult struct {
	Name       string     `json:"name"`
	Signal     string     `json:"signal"`
	Phase      string     `json:"phase"`
	Comparison Comparison `json:"comparison"`
	Threshold  float64    `json:"threshold"`
	// Observed is nil when the signal was not measurable in the window
	// (no traffic, or no reads); Reason then says why, and the result is
	// a failure.
	Observed *float64 `json:"observed,omitempty"`
	Pass     bool     `json:"pass"`
	Reason   string   `json:"reason,omitempty"`
}

// Verdict is the full experiment outcome: the per-phase measurement
// windows, the per-SLO-per-phase grid, and the overall pass flag (true
// only when every evaluated cell passed).
type Verdict struct {
	SchemaVersion int           `json:"schema_version"`
	Experiment    string        `json:"experiment"`
	Seed          int64         `json:"seed"`
	Phases        []PhaseReport `json:"phases"`
	Results       []SLOResult   `json:"results"`
	Pass          bool          `json:"pass"`
}

// Failed returns the failing results, in evaluation order.
func (v *Verdict) Failed() []SLOResult {
	var out []SLOResult
	for _, r := range v.Results {
		if !r.Pass {
			out = append(out, r)
		}
	}
	return out
}

// evaluate builds the SLO grid from the per-phase windows. Evaluation
// order is deterministic: SLO declaration order, then phase order.
func evaluate(slos []SLO, phases []PhaseReport) ([]SLOResult, bool) {
	byName := make(map[string]PhaseReport, len(phases))
	order := make([]string, 0, len(phases))
	for _, p := range phases {
		byName[p.Phase] = p
		order = append(order, p.Phase)
	}
	pass := true
	var results []SLOResult
	for _, s := range slos {
		for _, phase := range order {
			if !s.appliesTo(phase) {
				continue
			}
			results = append(results, evalOne(s, byName[phase]))
			if !results[len(results)-1].Pass {
				pass = false
			}
		}
	}
	return results, pass
}

func evalOne(s SLO, p PhaseReport) SLOResult {
	r := SLOResult{
		Name: s.Name, Signal: s.Signal, Phase: p.Phase,
		Comparison: s.Comparison, Threshold: s.Threshold,
	}
	obs, ok := p.Signals[s.Signal]
	if !ok {
		r.Pass = false
		r.Reason = missingReason(s.Signal, p)
		return r
	}
	v := obs
	r.Observed = &v
	switch s.Comparison {
	case Max:
		r.Pass = obs <= s.Threshold
	case Min:
		r.Pass = obs >= s.Threshold
	}
	if !r.Pass {
		r.Reason = fmt.Sprintf("observed %s violates %s %s",
			formatSignal(s.Signal, obs), string(s.Comparison), formatSignal(s.Signal, s.Threshold))
	}
	return r
}

// missingReason explains why a signal was absent from a phase window.
func missingReason(signal string, p PhaseReport) string {
	switch signal {
	case SignalErrorRate:
		if p.Ops == 0 {
			return "no traffic in window"
		}
	case SignalWrongValueRate:
		if p.Gets == 0 {
			return "no reads in window"
		}
	}
	return "signal not measured in window"
}

func formatSignal(signal string, v float64) string {
	switch signal {
	case SignalErrorRate, SignalWrongValueRate:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// Render formats the verdict as the litmus-style result table printed by
// `hrmsim chaos` (the JSON envelope carries the same data structurally).
func (v *Verdict) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos experiment %q (seed %d)\n\n", v.Experiment, v.Seed)

	fmt.Fprintf(&b, "%-10s %9s %8s %8s %8s %8s %7s %6s %6s\n",
		"PHASE", "OPS", "ERRORS", "WRONG", "INJECT", "CORR", "RECOV", "RETIRE", "P99us")
	for _, p := range v.Phases {
		p99 := "-"
		if p.WallP99Us > 0 {
			p99 = fmt.Sprintf("%.0f", p.WallP99Us)
		}
		fmt.Fprintf(&b, "%-10s %9d %8d %8d %8d %8d %7d %6d %6s\n",
			p.Phase, p.Ops, p.Errors, p.WrongValues, p.Injections,
			p.Corrected, p.Recovered, p.Retired, p99)
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "%-18s %-18s %-10s %12s %12s  %s\n",
		"SLO", "SIGNAL", "PHASE", "OBSERVED", "THRESHOLD", "VERDICT")
	for _, r := range v.Results {
		obs := "-"
		if r.Observed != nil {
			obs = formatSignal(r.Signal, *r.Observed)
		}
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
			if r.Observed == nil {
				verdict = "FAIL (" + r.Reason + ")"
			}
		}
		bound := string(r.Comparison) + " " + formatSignal(r.Signal, r.Threshold)
		fmt.Fprintf(&b, "%-18s %-18s %-10s %12s %12s  %s\n",
			r.Name, r.Signal, r.Phase, obs, bound, verdict)
	}

	failed := len(v.Failed())
	if v.Pass {
		fmt.Fprintf(&b, "\nverdict: PASS (%d/%d objectives met)\n", len(v.Results), len(v.Results))
	} else {
		fmt.Fprintf(&b, "\nverdict: FAIL (%d/%d objectives violated)\n", failed, len(v.Results))
	}
	return b.String()
}
