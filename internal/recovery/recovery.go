// Package recovery implements the software-response axis of the paper's
// design space (Table 4): parity-detect + recover-from-disk (the Par+R
// technique of the Detect&Recover design points), OS page retirement
// driven by corrected-error thresholds, periodic checkpointing of
// explicitly-recoverable data (the five-minute flush rule), and
// memtest-style software scrubbing.
//
// These responses plug into simulated memory through two hooks: the
// simmem.MCHandler interface (invoked on uncorrectable errors, before the
// fault would reach the application) and the simmem.ECCObserver interface
// (fed corrected-error events).
package recovery

import (
	"fmt"
	"time"

	"hrmsim/internal/simmem"
)

// Stats is a point-in-time summary of a recovery handler's activity,
// reported uniformly so a live server (internal/kvnode) can publish any
// handler's counters, in its metrics and its `stats` reply, without
// knowing its concrete type.
type Stats struct {
	// Recoveries counts successful data repairs (word or page restores).
	Recoveries int
	// Failures counts repairs that could not be performed.
	Failures int
	// Escalations counts word→page escalations (ParREscalating).
	Escalations int
	// Retired counts page-frame retirements.
	Retired int
}

// Reporter is implemented by recovery handlers that can summarize their
// activity.
type Reporter interface {
	RecoveryStats() Stats
}

// ParR is the paper's "Par+R" software correction: when the hardware
// detects an error it cannot correct (parity can only detect), reload a
// clean copy of the affected data from persistent storage. Regions must be
// Backed; data written since the last checkpoint recovers to its
// checkpointed value (which can surface as a stale — incorrect — response
// rather than a crash, exactly the trade the paper accepts for
// explicitly-recoverable data).
type ParR struct {
	// WholePage replaces the whole page frame instead of one word —
	// needed to clear stuck-at (hard) faults, at the cost of restoring
	// more stale data.
	WholePage bool
	// Recoveries counts successful recoveries.
	Recoveries int
	// Failures counts recoveries that could not be performed.
	Failures int
}

var _ simmem.MCHandler = (*ParR)(nil)

// HandleMC implements simmem.MCHandler.
func (p *ParR) HandleMC(as *simmem.AddressSpace, ev simmem.MCEvent) simmem.MCAction {
	if !ev.Region.Backed() {
		p.Failures++
		return simmem.MCCrash
	}
	var err error
	if p.WholePage {
		err = ev.Region.ReplaceFrame(ev.Region.PageIndex(ev.Addr))
	} else {
		err = ev.Region.RestoreWord(ev.Addr)
	}
	if err != nil {
		p.Failures++
		return simmem.MCCrash
	}
	p.Recoveries++
	return simmem.MCRecovered
}

// ResetTrial implements simmem.TrialResetter: recovery counters restart
// at zero so a handler retained across snapshot-lifecycle trials reports
// per-trial counts, like one freshly constructed at build time.
func (p *ParR) ResetTrial() {
	p.Recoveries = 0
	p.Failures = 0
}

// RecoveryStats implements Reporter.
func (p *ParR) RecoveryStats() Stats {
	return Stats{Recoveries: p.Recoveries, Failures: p.Failures}
}

// ParREscalating first tries a word restore (cheap, fixes soft errors);
// if the same word faults again — the signature of a stuck-at hard fault —
// it escalates to replacing the page frame, which models page retirement
// onto a fresh frame.
type ParREscalating struct {
	inner     ParR
	seenWords map[simmem.Addr]bool
	// Escalations counts page-frame replacements.
	Escalations int
}

// NewParREscalating returns an escalating Par+R handler.
func NewParREscalating() *ParREscalating {
	return &ParREscalating{seenWords: make(map[simmem.Addr]bool)}
}

var _ simmem.MCHandler = (*ParREscalating)(nil)

// HandleMC implements simmem.MCHandler.
func (p *ParREscalating) HandleMC(as *simmem.AddressSpace, ev simmem.MCEvent) simmem.MCAction {
	if !ev.Region.Backed() {
		return simmem.MCCrash
	}
	if p.seenWords[ev.Addr] {
		if err := ev.Region.ReplaceFrame(ev.Region.PageIndex(ev.Addr)); err != nil {
			return simmem.MCCrash
		}
		p.Escalations++
		return simmem.MCRecovered
	}
	p.seenWords[ev.Addr] = true
	if err := ev.Region.RestoreWord(ev.Addr); err != nil {
		return simmem.MCCrash
	}
	p.inner.Recoveries++
	return simmem.MCRecovered
}

// Recoveries returns the count of word-level recoveries.
func (p *ParREscalating) Recoveries() int { return p.inner.Recoveries }

// ResetTrial implements simmem.TrialResetter: the seen-word memory that
// drives escalation (and the counters) belongs to one trial's fault
// history, so a restore clears it.
func (p *ParREscalating) ResetTrial() {
	clear(p.seenWords)
	p.Escalations = 0
	p.inner.ResetTrial()
}

// RecoveryStats implements Reporter. Escalated page replacements count as
// recoveries too: the data was repaired, just at page granularity.
func (p *ParREscalating) RecoveryStats() Stats {
	return Stats{
		Recoveries:  p.inner.Recoveries + p.Escalations,
		Failures:    p.inner.Failures,
		Escalations: p.Escalations,
	}
}

// Retirer implements OS page retirement (Section II-A): when a page
// accumulates Threshold corrected errors, its frame is replaced — backed
// regions reload from persistent storage, others lose the page's contents
// (as retirement after copying would, modulo the copy).
type Retirer struct {
	// Threshold is the corrected-error count that triggers retirement.
	Threshold uint64
	// Retired counts retirement events.
	Retired int
}

var _ simmem.ECCObserver = (*Retirer)(nil)

// ObserveECC implements simmem.ECCObserver.
func (r *Retirer) ObserveECC(ev simmem.ECCEvent) {
	if ev.Kind != simmem.ECCCorrected || r.Threshold == 0 {
		return
	}
	page := ev.Region.PageIndex(ev.Addr)
	if ev.Region.CorrectedOnPage(page) >= r.Threshold {
		// Replacing the frame resets the page's corrected counter.
		if err := ev.Region.ReplaceFrame(page); err == nil {
			r.Retired++
		}
	}
}

// ResetTrial implements simmem.TrialResetter.
func (r *Retirer) ResetTrial() { r.Retired = 0 }

// RecoveryStats implements Reporter.
func (r *Retirer) RecoveryStats() Stats { return Stats{Retired: r.Retired} }

// Checkpointer periodically flushes a backed region's dirty contents to
// persistent storage, implementing the paper's assumption that Par+R data
// "is copied to a backup on disk every five minutes". Register it as an
// access observer; it piggybacks on application activity to notice the
// virtual clock passing each interval.
type Checkpointer struct {
	region   *simmem.Region
	interval time.Duration
	last     time.Duration
	// Flushes counts completed checkpoints.
	Flushes int
}

// NewCheckpointer creates a checkpointer for a backed region. The paper's
// Table 6 flush threshold is five minutes.
func NewCheckpointer(r *simmem.Region, interval time.Duration) (*Checkpointer, error) {
	if !r.Backed() {
		return nil, fmt.Errorf("recovery: region %q has no backing store to checkpoint to", r.Name())
	}
	if interval <= 0 {
		return nil, fmt.Errorf("recovery: checkpoint interval must be positive, got %v", interval)
	}
	return &Checkpointer{region: r, interval: interval}, nil
}

var _ simmem.AccessObserver = (*Checkpointer)(nil)

// ObserveAccess implements simmem.AccessObserver.
func (c *Checkpointer) ObserveAccess(ev simmem.AccessEvent) {
	if ev.Time-c.last < c.interval {
		return
	}
	if err := c.region.FlushAll(); err == nil {
		c.Flushes++
	}
	c.last = ev.Time
}

// ResetTrial implements simmem.TrialResetter: the flush schedule and
// counter restart from zero, as if the checkpointer were freshly
// installed — its next observed access re-arms the periodic flush.
func (c *Checkpointer) ResetTrial() {
	c.last = 0
	c.Flushes = 0
}

// PeriodicScrubber runs a full write-back scrub pass over its regions
// every interval of virtual time, piggybacking on application activity
// like the Checkpointer. Scrubbing is what keeps independent single-bit
// errors from accumulating into uncorrectable multi-bit words — the
// lifetime simulations show ECC without scrubbing crash-looping at high
// error rates.
type PeriodicScrubber struct {
	regions  []*simmem.Region
	interval time.Duration
	last     time.Duration
	// RetireThreshold, when nonzero, retires (replaces the frame of)
	// any backed page whose corrected-error count reaches it after a
	// scrub pass — patrol scrubbing with predictive-failure-analysis
	// retirement, which is what clears stuck-at cells.
	RetireThreshold uint64
	// Passes counts completed scrub sweeps; Corrected and
	// Uncorrectable accumulate over all passes; Retired counts frame
	// replacements.
	Passes        int
	Corrected     int
	Uncorrectable int
	Retired       int
}

// NewPeriodicScrubber creates a scrubber over the given regions.
func NewPeriodicScrubber(interval time.Duration, regions ...*simmem.Region) (*PeriodicScrubber, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("recovery: scrub interval must be positive, got %v", interval)
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("recovery: scrubber needs at least one region")
	}
	return &PeriodicScrubber{regions: regions, interval: interval}, nil
}

var _ simmem.AccessObserver = (*PeriodicScrubber)(nil)

// ObserveAccess implements simmem.AccessObserver.
func (s *PeriodicScrubber) ObserveAccess(ev simmem.AccessEvent) {
	if ev.Time-s.last < s.interval {
		return
	}
	s.last = ev.Time
	for _, r := range s.regions {
		rep, err := ScrubRegion(r)
		if err != nil {
			continue
		}
		s.Corrected += rep.Corrected
		s.Uncorrectable += rep.Uncorrectable
		if s.RetireThreshold > 0 && r.Backed() {
			for p := 0; p < r.PageCount(); p++ {
				if r.CorrectedOnPage(p) >= s.RetireThreshold {
					if err := r.ReplaceFrame(p); err == nil {
						s.Retired++
					}
				}
			}
		}
	}
	s.Passes++
}

// RecoveryStats implements Reporter: corrected words written back count
// as recoveries, frame replacements as retirements.
func (s *PeriodicScrubber) RecoveryStats() Stats {
	return Stats{Recoveries: s.Corrected, Retired: s.Retired}
}

// ResetTrial implements simmem.TrialResetter: the scrub schedule and all
// pass counters restart from zero.
func (s *PeriodicScrubber) ResetTrial() {
	s.last = 0
	s.Passes = 0
	s.Corrected = 0
	s.Uncorrectable = 0
	s.Retired = 0
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Corrected     int
	Uncorrectable int
	Mismatched    int // memtest mode: bytes differing from the backing copy
	Repaired      int // memtest mode: bytes restored from the backing copy
}

// ScrubRegion performs one full scrub pass over a protected region,
// demand-correcting every codeword (with write-back) and counting
// uncorrectable words without crashing anything — what a background
// scrubber or patrol read does.
func ScrubRegion(r *simmem.Region) (ScrubReport, error) {
	var rep ScrubReport
	for p := 0; p < r.PageCount(); p++ {
		c, u, err := r.ScrubPage(p, true)
		if err != nil {
			return ScrubReport{}, err
		}
		rep.Corrected += c
		rep.Uncorrectable += u
	}
	return rep, nil
}

// MemtestRegion implements the paper's §VI-C suggestion for memory without
// any detection capability: periodically compare read-only backed data
// against its persistent copy and repair divergence — software-only error
// detection and correction for NoECC regions.
func MemtestRegion(as *simmem.AddressSpace, r *simmem.Region, repair bool) (ScrubReport, error) {
	if !r.Backed() {
		return ScrubReport{}, fmt.Errorf("recovery: memtest needs a backed region, %q is not", r.Name())
	}
	var rep ScrubReport
	ps := as.PageSize()
	buf := make([]byte, ps)
	for p := 0; p < r.PageCount(); p++ {
		addr := r.PageAddr(p)
		if err := as.ReadRaw(addr, buf); err != nil {
			return ScrubReport{}, err
		}
		clean, err := r.BackingBytes(addr, ps)
		if err != nil {
			return ScrubReport{}, err
		}
		dirty := false
		for i := range buf {
			if buf[i] != clean[i] {
				rep.Mismatched++
				dirty = true
			}
		}
		if dirty && repair {
			if err := r.ReplaceFrame(p); err != nil {
				return ScrubReport{}, err
			}
			rep.Repaired++
		}
	}
	return rep, nil
}
