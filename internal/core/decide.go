// Deciding a trial without simulating it (DESIGN.md §9).
//
// An injected error can change behaviour only through an access that
// senses it. A session therefore runs its measured window once with no
// fault under a monitor.Profile, which records for every granule how the
// window first referenced it, and a trial whose drawn address falls in a
// granule the window never references — or, for a soft error, first
// overwrites whole — is classified from that record: its execution is the
// fault-free pass.

package core

import (
	"hrmsim/internal/apps"
	"hrmsim/internal/faults"
	"hrmsim/internal/monitor"
	"hrmsim/internal/simmem"
)

// profileWindow serves the measured window once on the restored, fault-
// free instance and returns its record, leaving the instance
// restored again. It returns no profile — every trial then simulates —
// when a fault can act other than through the first access to its granule
// (CPU cache model on; observers the snapshot retains, such as a
// scrubber), when a trial is more than its result (tracing) or may stop
// early (operation budget), or when the pass is not what the trials
// replay: a response off golden, or an observer that did not see every
// access the instance counted.
func profileWindow(app apps.SnapshotApp, cfg CampaignConfig, golden []uint64) (*monitor.Profile, error) {
	if cfg.Tracer != nil || cfg.TrialOpBudget > 0 {
		return nil, nil
	}
	if _, err := app.Reset(); err != nil {
		return nil, err
	}
	// Fetched after Reset, which may have swapped the instance.
	as := app.Space()
	if as.CacheEnabled() || as.Observed() {
		return nil, nil
	}
	p := monitor.New(as)
	before := as.Counters()
	as.AddAccessObserver(p)
	faithful := true
	for q := cfg.Warmup; q < len(golden); q++ {
		resp, err := serveGuarded(app, q)
		if err != nil || resp.Digest != golden[q] {
			faithful = false
			break
		}
	}
	// Read off the instance that served, however it was reached: had the
	// observer sat on a space Reset swapped out, it saw nothing, and the
	// comparison below refuses the empty profile it would have left.
	after := app.Space().Counters()
	p.End = as.Clock().Now()
	if _, err := app.Reset(); err != nil {
		return nil, err
	}
	if !faithful || p.Accesses != (after.Loads-before.Loads)+(after.Stores-before.Stores) {
		return nil, nil
	}
	return p, nil
}

// decide returns the result of a trial injecting spec at addr when the
// record p settles it, and false when the trial must be simulated. A nil
// record decides nothing. A decided trial served the window's requests.
//
// Never referenced: no access senses the granule, so the run is the
// fault-free pass to the last request — soft or hard, a stuck bit nobody
// reads is inert — and the error stays latent. First overwritten whole,
// soft error: nothing reads the flip before the store replaces it (a
// full-codeword store encodes without decoding), after which memory
// equals the fault-free run's; the first access to the injected byte was
// that store. A stuck bit outlives the store, so hard errors simulate.
func decide(p *monitor.Profile, requests int, addr simmem.Addr, spec faults.Spec) (TrialResult, bool) {
	if p == nil {
		return TrialResult{}, false
	}
	g, ok := p.At(addr)
	if !ok {
		return TrialResult{}, false
	}
	var outcome Outcome
	switch {
	case g.First == monitor.TouchNever:
		outcome = OutcomeMaskedLatent
	case g.First == monitor.TouchOverwrite && spec.Class == faults.Soft:
		outcome = OutcomeMaskedOverwrite
	default:
		return TrialResult{}, false
	}
	return TrialResult{
		Outcome:    outcome,
		Region:     g.Region,
		Kind:       g.Kind,
		InjectedAt: p.Start,
		Requests:   requests,
		EndedAt:    p.End,
	}, true
}
