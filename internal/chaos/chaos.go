// Package chaos is the chaos harness: it drives one kvserve node
// (internal/kvnode) through a steady → chaos → recovery run with a seeded
// op stream, injects memory errors at fixed operation slots of the chaos
// phase, checks every GET against a deterministic value oracle, and
// renders a litmus-style steady-state verdict.
//
// The run is one sequential driver (Run). Every command it sends — get,
// set, inject, stats — goes through a single `do(line) (reply, error)`
// transport: kvnode.Server.Dispatch for a self-hosted node, or one TCP
// connection (Conn) for `hrmsim chaos -attach`. Phases are counted in
// operations, fault k lands at a fixed slot of the chaos phase, and the
// driver is the node's only writer, so the oracle knows every key's
// current version exactly and the same seed against the same node gives
// the same verdict over either transport.
//
// The driver reads the node's `stats` at start-up — the oracle's key
// count and value size come from that first reply, never from flags —
// and again at each phase boundary; each phase report is the difference
// between two boundaries. The objectives a run is judged on are the
// deterministic ones: error rate, wrong-value rate, and recovery
// activity. Each phase's wall duration and wall latency percentiles are
// reported beside them and never gate.
//
// Faults land between commands, never mid-access: a LocalInjector (hot
// placement) takes the address-space exclusion gate for each flip, and
// random placement is the node's own `inject soft` command, which the
// server serializes the same way.
package chaos

import (
	"math"

	"hrmsim/internal/obsv"
)

// Phase names of the run, in order.
const (
	PhaseSteady   = "steady"
	PhaseChaos    = "chaos"
	PhaseRecovery = "recovery"
)

// Signal names an SLO can be declared over. Rates are ratios of kvload
// counter deltas; recovery signals are server-side stat deltas. Every
// signal is a count of what the op stream saw, so it does not depend on
// the host.
const (
	SignalErrorRate      = "error_rate"       // errors / ops
	SignalWrongValueRate = "wrong_value_rate" // wrong values / gets
	SignalRecoveries     = "recoveries"       // MC-handler repairs (delta)
	SignalRetiredPages   = "retired_pages"    // page frames retired (delta)
)

// Comparison is the direction an SLO bounds its signal.
type Comparison string

const (
	// Max passes when observed <= threshold (error rates).
	Max Comparison = "max"
	// Min passes when observed >= threshold (recovery activity).
	Min Comparison = "min"
)

// SLO is one declared service-level objective: a bound on a signal,
// evaluated independently in each phase it applies to.
type SLO struct {
	// Name labels the objective in the verdict ("error-rate").
	Name string `json:"name"`
	// Signal is one of the Signal* constants.
	Signal string `json:"signal"`
	// Comparison is Max (observed <= threshold) or Min (>=).
	Comparison Comparison `json:"comparison"`
	Threshold  float64    `json:"threshold"`
	// Phases restricts evaluation to the named phases; empty means all.
	Phases []string `json:"phases,omitempty"`
}

// appliesTo reports whether the SLO is evaluated in the named phase.
func (s SLO) appliesTo(phase string) bool {
	if len(s.Phases) == 0 {
		return true
	}
	for _, p := range s.Phases {
		if p == phase {
			return true
		}
	}
	return false
}

// objectives is the SLO set a run is judged on: the service must not
// error, must never serve a wrong value, and (when the node runs a
// recovery technique) must show recovery activity while under chaos.
func objectives(recovering bool) []SLO {
	slos := []SLO{
		{Name: "error-rate", Signal: SignalErrorRate, Comparison: Max, Threshold: 0},
		{Name: "no-wrong-values", Signal: SignalWrongValueRate, Comparison: Max, Threshold: 0},
	}
	if recovering {
		// Detection happens at read time, so online repairs land in the
		// chaos window (the read-back right after each injection); the
		// recovery phase then shows the repaired node meeting its
		// objectives again.
		slos = append(slos, SLO{
			Name: "recovery-active", Signal: SignalRecoveries, Comparison: Min,
			Threshold: 1, Phases: []string{PhaseChaos},
		})
	}
	return slos
}

// Percentile computes the q-quantile (0 < q <= 1) of the histogram window
// between two snapshots of the same histogram, by linear interpolation
// within the containing bucket. A zero-value start snapshot means "from
// the beginning". The second return is false when the window is empty or
// the quantile falls in the +Inf overflow bucket (beyond the histogram's
// finite bounds).
func Percentile(start, end obsv.HistogramSnapshot, q float64) (float64, bool) {
	n := end.Count - start.Count
	if n <= 0 || len(end.Bounds) == 0 ||
		(len(start.Counts) != 0 && len(start.Counts) != len(end.Counts)) {
		return 0, false
	}
	target := q * float64(n)
	if target < 1 {
		target = 1
	}
	cum, lower := 0.0, 0.0
	for i, bound := range end.Bounds {
		c := float64(end.Counts[i])
		if len(start.Counts) != 0 {
			c -= float64(start.Counts[i])
		}
		if c > 0 && cum+c >= target {
			frac := (target - cum) / c
			return lower + frac*(bound-lower), true
		}
		cum += c
		lower = bound
	}
	return math.Inf(1), false
}
