// Repair and scrub: frame replacement (page retirement), the
// backing-store checkpoint/restore operations, and the background
// scrubber.

package simmem

import "fmt"

// ReplaceFrame models OS page retirement: the page's frame is replaced by a
// fresh one, clearing stuck-at faults and corrected-error counters. The new
// frame is filled from the region's backing store if it has one, and zeroed
// otherwise; check storage is re-encoded.
func (r *Region) ReplaceFrame(pageIdx int) error {
	if pageIdx < 0 || pageIdx >= len(r.pages) {
		return fmt.Errorf("simmem: page %d out of range [0,%d)", pageIdx, len(r.pages))
	}
	// Frame replacement is a corruption channel for taint purposes:
	// the incoming frame's contents come from outside the encoded
	// store path, so the page is tainted for the duration of the swap …
	r.taintPage(pageIdx)
	p := &r.pages[pageIdx]
	p.stuckSet = nil
	p.stuckClr = nil
	p.corrected = 0
	p.replaced++
	ps := r.as.pageSize
	if r.backing != nil {
		copy(p.data, r.backing[pageIdx*ps:(pageIdx+1)*ps])
	} else {
		clear(p.data)
	}
	if r.codec != nil {
		w, c := r.granule, r.checkBytes
		for wi := 0; wi < r.wordsPerPage; wi++ {
			r.codec.Encode(p.data[wi*w:(wi+1)*w], p.check[wi*c:(wi+1)*c])
		}
	}
	// … and verifiably clean once it completes: the stuck-at state is
	// gone and every word just went through a full re-encode (an
	// unprotected frame is trivially clean — sensed bytes equal stored
	// bytes with no masks). Note the replacement can still launder a
	// semantically wrong backing copy into valid codewords; taint tracks
	// decode visibility, not ground truth, which the outcome classifier
	// checks against raw bytes.
	r.clearPageTaint(pageIdx)
	return nil
}

// Backing-store (persistent storage) operations.

// FlushPage copies page i's current stored bytes to the backing store —
// one step of a periodic checkpoint (the Par+R five-minute flush).
func (r *Region) FlushPage(i int) error {
	if r.backing == nil {
		return fmt.Errorf("simmem: region %q has no backing store", r.name)
	}
	if i < 0 || i >= len(r.pages) {
		return fmt.Errorf("simmem: page %d out of range [0,%d)", i, len(r.pages))
	}
	ps := r.as.pageSize
	// The backing store is snapshotted too, so flushing dirties the page.
	r.markDirty(i)
	copy(r.backing[i*ps:(i+1)*ps], r.pages[i].data)
	return nil
}

// FlushAll checkpoints every page to the backing store.
func (r *Region) FlushAll() error {
	for i := range r.pages {
		if err := r.FlushPage(i); err != nil {
			return err
		}
	}
	return nil
}

// RestoreWord reloads the codeword (or single byte, for unprotected
// regions) containing addr from the backing store and re-encodes its check
// storage. Par+R recovery calls this after a parity detection.
func (r *Region) RestoreWord(addr Addr) error {
	if r.backing == nil {
		return fmt.Errorf("simmem: region %q has no backing store", r.name)
	}
	if !r.Contains(addr) {
		return &Fault{Kind: FaultOutOfRange, Addr: addr}
	}
	w := 1
	if r.codec != nil {
		w = r.codec.WordBytes()
	}
	off := int(addr-r.base) / w * w
	// WriteRaw re-encodes the restored word and clears its taint bit
	// when no stuck-at state covers it; the rest of the page's taint
	// state is per-word and unaffected, so no whole-page verification
	// is needed — a page whose only error was just repaired returns to
	// the fully-fast path immediately.
	return r.as.WriteRaw(r.base+Addr(off), r.backing[off:off+w])
}

// BackingBytes returns the clean persistent copy of the byte range
// [addr, addr+n), for recoverability verification in tests.
func (r *Region) BackingBytes(addr Addr, n int) ([]byte, error) {
	if r.backing == nil {
		return nil, fmt.Errorf("simmem: region %q has no backing store", r.name)
	}
	off := int(addr - r.base)
	if !r.Contains(addr) || off+n > r.size {
		return nil, &Fault{Kind: FaultOutOfRange, Addr: addr}
	}
	out := make([]byte, n)
	copy(out, r.backing[off:off+n])
	return out, nil
}

// ScrubPage decodes every codeword of page i like a background memory
// scrubber: corrected patterns are optionally written back, uncorrectable
// patterns are counted but raise no machine check (scrubbers log and move
// on). It emits no access or ECC events and returns the counts. Scrubbing
// an unprotected region reports zeroes — without a code there is nothing
// to detect (the paper's §VI-C suggests memtest-style scans for such
// regions, which compare against known patterns instead; see the recovery
// package).
func (r *Region) ScrubPage(i int, writeBack bool) (corrected, uncorrectable int, err error) {
	if i < 0 || i >= len(r.pages) {
		return 0, 0, fmt.Errorf("simmem: page %d out of range [0,%d)", i, len(r.pages))
	}
	if r.codec == nil {
		// Without a code there is nothing to decode, but absent
		// stuck-at state an unprotected granule trivially satisfies the
		// taint invariant (sensing is a plain copy), so the scan
		// re-admits every stuck-free granule to the fast path.
		p := &r.pages[i]
		if !p.hasStuck() {
			r.clearPageTaint(i)
		} else if p.anyTaint {
			g := r.granule
			for wi := 0; wi < r.wordsPerPage; wi++ {
				if p.wordTainted(wi) && !p.stuckInRange(wi*g, (wi+1)*g) {
					r.clearWordTaint(i, wi)
				}
			}
		}
		return 0, 0, nil
	}
	p := &r.pages[i]
	w, c := r.granule, r.checkBytes
	word, check, owned := r.as.acquireScratch(w, c)
	defer r.as.releaseScratch(owned)
	for wordIdx := 0; wordIdx < r.wordsPerPage; wordIdx++ {
		wo := wordIdx * w
		r.senseWord(p, wordIdx, word, check)
		switch r.codec.Decode(word, check) {
		case VerdictClean:
			// The scrub just proved this word's taint invariant — as
			// long as no stuck-at state covers it (a stuck cell that
			// happens to match storage today can diverge after the next
			// store).
			if p.wordTainted(wordIdx) && !p.stuckInRange(wo, wo+w) {
				r.clearWordTaint(i, wordIdx)
			}
		case VerdictCorrected:
			corrected++
			r.markDirty(i)
			p.corrected++
			if writeBack {
				copy(p.data[wo:wo+w], word)
				copy(p.check[wordIdx*c:(wordIdx+1)*c], check)
				// The written-back word now stores what it decodes to,
				// so it rejoins the fast path unless stuck-at state
				// keeps sensing divergent. Corrections left un-written
				// keep their erroneous stored bytes and stay tainted.
				if !p.stuckInRange(wo, wo+w) {
					r.clearWordTaint(i, wordIdx)
				}
			}
		case VerdictUncorrectable:
			uncorrectable++
		}
	}
	return corrected, uncorrectable, nil
}
