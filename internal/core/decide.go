// Deciding a trial without simulating it (DESIGN.md §9).
//
// An injected error can change behaviour only through an access that
// senses it. A build's measured window is therefore served once with no
// fault under a monitor.Profile (Prepare, on the instance that seeds the
// session pool), which records for every granule how the window first
// referenced it, and a trial whose drawn address falls in a granule the
// window never references — or, for a soft error, first overwrites whole —
// is classified from that one record, whichever campaign and worker run
// it: its execution is the fault-free pass.

package core

import (
	"hrmsim/internal/faults"
	"hrmsim/internal/monitor"
	"hrmsim/internal/simmem"
)

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
