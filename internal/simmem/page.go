// Page frames and the per-granule taint bitmap.

package simmem

import "math/bits"

// page is one physical page frame of a region.
type page struct {
	data []byte
	// anyTaint is the taint bitmap's page-level summary (see taint): true
	// iff any bit is set, so the all-clean fast test is one flag load per
	// page. It sits next to data, so that flag and the bytes it guards
	// are read from one cache line.
	anyTaint bool
	check    []byte // nil when the region is unprotected
	// stuckSet forces bits to 1 on sensing; stuckClr forces bits to 0.
	// Both are nil until the first hard error is installed.
	stuckSet  []byte
	stuckClr  []byte
	corrected uint64 // corrected-error events observed on this frame
	replaced  int    // times the frame was replaced (retirement)
	// taint is a per-granule (codeword, or Region.granule bytes when
	// unprotected) bitmap recording which words may hold a visible
	// error. The invariant (DESIGN.md "Clean-word fast path"): an
	// untainted granule has no stuck-at state over its bytes and (in
	// protected regions) decodes VerdictClean, so sensing it is a plain
	// copy of data and decoding it is a no-op — which is exactly what
	// the fast path does. Every corruption channel sets the covering
	// bits; only operations that re-establish the invariant verifiably
	// clear them. The slice is allocated lazily on first taint (clean
	// frames — the overwhelming majority — pay one nil pointer).
	taint []uint64
}

// wordTainted reports whether granule wi of the page is tainted.
func (p *page) wordTainted(wi int) bool {
	return p.anyTaint && p.taint[wi>>6]&(1<<(wi&63)) != 0
}

// stuckInRange reports whether any stuck-at mask covers stored bytes
// [lo, hi) of the page.
func (p *page) stuckInRange(lo, hi int) bool {
	if p.stuckSet != nil {
		for _, b := range p.stuckSet[lo:hi] {
			if b != 0 {
				return true
			}
		}
	}
	if p.stuckClr != nil {
		for _, b := range p.stuckClr[lo:hi] {
			if b != 0 {
				return true
			}
		}
	}
	return false
}

// senseByte returns the value the memory device would return for byte i of
// the page, applying stuck-at faults.
func (p *page) senseByte(i int) byte {
	b := p.data[i]
	if p.stuckClr != nil {
		b &^= p.stuckClr[i]
	}
	if p.stuckSet != nil {
		b |= p.stuckSet[i]
	}
	return b
}

// hasStuck reports whether the frame has any stuck-at fault state.
func (p *page) hasStuck() bool { return p.stuckSet != nil || p.stuckClr != nil }

// TaintedPages returns the number of pages with at least one tainted
// granule (granules whose sensed contents are not known to decode
// clean, forcing accesses through the full decode path).
func (as *AddressSpace) TaintedPages() int {
	p, _ := as.TaintStats()
	return p
}

// TaintStats returns the tainted page and granule counts in one pass.
func (as *AddressSpace) TaintStats() (pages, words int) {
	for _, r := range as.regions {
		for pi := range r.pages {
			p := &r.pages[pi]
			if !p.anyTaint {
				continue
			}
			pages++
			for _, b := range p.taint {
				words += bits.OnesCount64(b)
			}
		}
	}
	return pages, words
}

// wordIndex returns the taint-granule index within its page of region
// offset off.
func (r *Region) wordIndex(off int) int {
	return (off % r.as.pageSize) / r.granule
}

// taintWord marks granule wi of page pi as possibly holding a visible
// error, and dirties the page so an armed snapshot rolls the bitmap
// back with the data.
func (r *Region) taintWord(pi, wi int) {
	r.markDirty(pi)
	p := &r.pages[pi]
	if p.taint == nil {
		p.taint = make([]uint64, r.taintLen)
	}
	p.taint[wi>>6] |= 1 << (wi & 63)
	p.anyTaint = true
}

// taintPage marks every granule of page pi tainted — the conservative
// whole-page channel (frame replacement's swap window).
func (r *Region) taintPage(pi int) {
	r.markDirty(pi)
	p := &r.pages[pi]
	if p.taint == nil {
		p.taint = make([]uint64, r.taintLen)
	}
	full := r.wordsPerPage >> 6
	for i := 0; i < full; i++ {
		p.taint[i] = ^uint64(0)
	}
	if rem := r.wordsPerPage & 63; rem != 0 {
		p.taint[full] = 1<<rem - 1
	}
	p.anyTaint = true
}

// clearWordTaint marks granule wi of page pi verifiably clean again.
// Callers must have re-established the taint invariant for the granule
// (no stuck-at state over its bytes, decodes clean) first. The bitmap
// change dirties the page so an armed snapshot restores the captured
// taint state exactly; clearing an already-clean granule is a no-op
// with no tracking cost.
func (r *Region) clearWordTaint(pi, wi int) {
	p := &r.pages[pi]
	if !p.anyTaint || p.taint[wi>>6]&(1<<(wi&63)) == 0 {
		return
	}
	r.markDirty(pi)
	p.taint[wi>>6] &^= 1 << (wi & 63)
	p.anyTaint = false
	for _, b := range p.taint {
		if b != 0 {
			p.anyTaint = true
			break
		}
	}
}

// clearPageTaint marks every granule of page pi verifiably clean.
func (r *Region) clearPageTaint(pi int) {
	p := &r.pages[pi]
	if !p.anyTaint {
		return
	}
	r.markDirty(pi)
	clear(p.taint)
	p.anyTaint = false
}

// cleanPages reports whether pages p0..p1 (inclusive) are all fully
// untainted (their summary bits are clear).
func (r *Region) cleanPages(p0, p1 int) bool {
	for pi := p0; pi <= p1; pi++ {
		if r.pages[pi].anyTaint {
			return false
		}
	}
	return true
}

// verifyWordClean reports whether granule wi of page pi provably
// satisfies the taint invariant: no stuck-at state over its bytes, and
// (in protected regions) the codeword decodes VerdictClean. It decodes
// into scratch copies so a correctable pattern is not corrected as a
// side effect. Equivalence tests use it to audit the bitmap against
// ground truth; the access paths trust the bitmap instead of paying
// for verification.
func (r *Region) verifyWordClean(pi, wi int) bool {
	p := &r.pages[pi]
	g := r.granule
	if p.stuckInRange(wi*g, (wi+1)*g) {
		return false
	}
	if r.codec == nil {
		return true
	}
	word, check, owned := r.as.acquireScratch(g, r.checkBytes)
	defer r.as.releaseScratch(owned)
	r.senseWord(p, wi, word, check)
	return r.codec.Decode(word, check) == VerdictClean
}
