// Deciding a trial without simulating it (DESIGN.md §9).
//
// An injected error can change behaviour only through an access that
// senses it. A session therefore runs its measured window once with no
// fault, recording for every granule how the window first referenced it,
// and a trial whose drawn address falls in a granule the window never
// references — or, for a soft error, first overwrites whole — is
// classified from that record: its execution is the fault-free pass.

package core

import (
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/faults"
	"hrmsim/internal/simmem"
)

// firstTouch is how the fault-free window first referenced one granule.
type firstTouch uint8

const (
	// touchNever: no load or store overlapped the granule.
	touchNever firstTouch = iota
	// touchOverwrite: the first overlapping access was a store covering
	// all of it.
	touchOverwrite
	// touchSensed: anything else — a load, or a store of part of a
	// codeword (which reads the rest back through the decoder).
	touchSensed
)

// regionProfile is one region's share of an accessProfile. It is keyed by
// base address, not by *simmem.Region: a Reset may swap the instance (the
// build-per-trial reference does), and every build lays regions out alike.
type regionProfile struct {
	base simmem.Addr
	name string
	kind simmem.RegionKind
	// granule is the unit a fault is sensed in: the codeword in a
	// protected region (a decode covers all of it), one byte otherwise.
	// It is not simmem's 64-byte taint granule, which only selects the
	// access path: bytes next to a flipped or stuck one sense as stored.
	granule int
	// first covers the bytes in use at the snapshot, which is all that
	// address sampling draws from.
	first []firstTouch
}

// accessProfile is a session's record of its fault-free measured window.
type accessProfile struct {
	regions []regionProfile
	// What every trial the profile decides reports: the window's
	// request count and its virtual clock at both ends.
	requests            int
	injectedAt, endedAt time.Duration

	// Pass state: the profiled instance's regions, parallel to regions,
	// and the number of events seen.
	live     []*simmem.Region
	accesses uint64
}

var _ simmem.AccessObserver = (*accessProfile)(nil)

// ObserveAccess implements simmem.AccessObserver.
func (p *accessProfile) ObserveAccess(ev simmem.AccessEvent) {
	p.accesses++
	for i, r := range p.live {
		if r == ev.Region {
			p.regions[i].touch(ev)
			return
		}
	}
}

// touch folds one access into the region's first-touch states.
func (rp *regionProfile) touch(ev simmem.AccessEvent) {
	g := rp.granule
	off := int(ev.Addr - rp.base)
	end := off + ev.Len
	for gi := off / g; gi < len(rp.first) && gi*g < end; gi++ {
		if rp.first[gi] != touchNever {
			continue
		}
		if ev.Kind == simmem.Store && gi*g >= off && (gi+1)*g <= end {
			rp.first[gi] = touchOverwrite
		} else {
			rp.first[gi] = touchSensed
		}
	}
}

// newAccessProfile returns an all-never profile of as in its current
// state, ready to observe it.
func newAccessProfile(as *simmem.AddressSpace) *accessProfile {
	p := &accessProfile{live: as.Regions(), injectedAt: as.Clock().Now()}
	for _, r := range p.live {
		rp := regionProfile{base: r.Base(), name: r.Name(), kind: r.Kind(), granule: 1}
		if c := r.Codec(); c != nil {
			rp.granule = c.WordBytes()
		}
		rp.first = make([]firstTouch, (r.Used()+rp.granule-1)/rp.granule)
		p.regions = append(p.regions, rp)
	}
	return p
}

// profileWindow serves the measured window once on the restored, fault-
// free instance and returns its first-touch profile, leaving the instance
// restored again. It returns no profile — every trial then simulates —
// when a fault can act other than through the first access to its granule
// (CPU cache model on; observers the snapshot retains, such as a
// scrubber), when a trial is more than its result (tracing) or may stop
// early (operation budget), or when the pass is not what the trials
// replay: a response off golden, or an observer that did not see every
// access the instance counted.
func profileWindow(app apps.SnapshotApp, cfg CampaignConfig, golden []uint64) (*accessProfile, error) {
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
	p := newAccessProfile(as)
	p.requests = len(golden) - cfg.Warmup
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
	p.endedAt = as.Clock().Now()
	if _, err := app.Reset(); err != nil {
		return nil, err
	}
	if !faithful || p.accesses != (after.Loads-before.Loads)+(after.Stores-before.Stores) {
		return nil, nil
	}
	p.live = nil // the pass is over; keep no reference into the instance
	return p, nil
}

// decide returns the result of a trial injecting spec at addr when the
// profile settles it, and false when the trial must be simulated. A nil
// profile decides nothing.
//
// Never referenced: no access senses the granule, so the run is the
// fault-free pass to the last request — soft or hard, a stuck bit nobody
// reads is inert — and the error stays latent. First overwritten whole,
// soft error: nothing reads the flip before the store replaces it (a
// full-codeword store encodes without decoding), after which memory
// equals the fault-free run's; the first access to the injected byte was
// that store. A stuck bit outlives the store, so hard errors simulate.
func (p *accessProfile) decide(addr simmem.Addr, spec faults.Spec) (TrialResult, bool) {
	if p == nil {
		return TrialResult{}, false
	}
	for i := range p.regions {
		rp := &p.regions[i]
		if addr < rp.base {
			break
		}
		gi := int(addr-rp.base) / rp.granule
		if gi >= len(rp.first) {
			continue
		}
		var outcome Outcome
		switch {
		case rp.first[gi] == touchNever:
			outcome = OutcomeMaskedLatent
		case rp.first[gi] == touchOverwrite && spec.Class == faults.Soft:
			outcome = OutcomeMaskedOverwrite
		default:
			return TrialResult{}, false
		}
		return TrialResult{
			Outcome:    outcome,
			Region:     rp.name,
			Kind:       rp.kind,
			InjectedAt: p.injectedAt,
			Requests:   p.requests,
			EndedAt:    p.endedAt,
		}, true
	}
	return TrialResult{}, false
}
