// Explaining one trial: the trial re-run exactly as a campaign worker runs
// it, with a log of what its injected error met on the way to its outcome
// (`hrmsim explain`, OBSERVABILITY.md "Explaining a trial").

package core

import (
	"fmt"

	"hrmsim/internal/inject"
	"hrmsim/internal/monitor"
	"hrmsim/internal/simmem"
)

// trialLog is runTrial's record of one trial when asked for one: the drawn
// address, what was injected there, and in order every later access that
// overlaps an injected byte and every ECC event. Campaigns pass none.
type trialLog struct {
	// Addr is the drawn injection address.
	Addr simmem.Addr
	// Injection is what was injected; zero for a decided trial, which
	// injects nothing.
	Injection inject.Injection
	// Consumptions are the accesses overlapping an injected byte, the
	// first of which decides masked-by-overwrite against masked-by-logic.
	Consumptions []simmem.AccessEvent
	// ECC are the protection-code events after injection.
	ECC []simmem.ECCEvent
}

// ObserveAccess implements simmem.AccessObserver.
func (l *trialLog) ObserveAccess(ev simmem.AccessEvent) {
	for _, t := range l.Injection.Targets {
		if t.Addr >= ev.Addr && t.Addr < ev.Addr+simmem.Addr(ev.Len) {
			l.Consumptions = append(l.Consumptions, ev)
			return
		}
	}
}

// ObserveECC implements simmem.ECCObserver.
func (l *trialLog) ObserveECC(ev simmem.ECCEvent) { l.ECC = append(l.ECC, ev) }

// Explanation is one trial re-run with its log.
type Explanation struct {
	// Result is the re-run's result, Index set.
	Result TrialResult
	// Decided reports the trial was classified from the fault-free
	// window's record (decide.go); Granule is that record's entry for the
	// drawn address.
	Decided bool
	Granule monitor.Granule
	trialLog
}

// ExplainTrial re-runs trial i of the campaign cfg describes the way the
// campaign ran it: Prepare, then runTrial on the pass's session with a
// log attached. The log is observational, so the result is the
// campaign's own for trial i.
func ExplainTrial(cfg CampaignConfig, i int) (*Explanation, error) {
	p, err := Prepare(cfg.Builder, cfg.Warmup)
	if err != nil {
		return nil, err
	}
	ex := &Explanation{}
	tr, ts, err := p.runTrial(p.take(), cfg, i, &ex.trialLog)
	if err != nil {
		return nil, fmt.Errorf("core: trial %d: %w", i, err)
	}
	tr.Index = i
	ex.Result, ex.Decided = tr, ts.decided
	if ex.Decided {
		ex.Granule, _ = p.profile.At(ex.Addr)
	}
	return ex, nil
}
