// The load path: one span loader for every region kind, and the
// sense/decode primitives it shares with the store, scrub and audit
// paths.

package simmem

// loadSpan reads len(buf) bytes at region offset off as the memory
// device and controller would return them: stuck-at faults are sensed
// and, in protected regions, every covered codeword is decoded (possibly
// correcting, possibly raising a machine check). It is the only load
// path: every Accessor.Load that the front end's fast check does not
// serve ends here.
//
// On the fast path untainted granules skip all of that. The taint
// invariant guarantees each would sense as its stored bytes and decode
// VerdictClean unmodified, so they are bulk-copied from storage with no
// counters, events or side effects — exactly how the full path behaves
// on them. Loads served entirely that way advance fastLoads; every
// granule served that way advances fastWords.
func (as *AddressSpace) loadSpan(r *Region, off int, buf []byte) error {
	if len(buf) == 0 {
		as.fastLoads++
		return nil
	}
	ps := as.pageSize
	if as.fastPath {
		// Single-page untainted span: the overwhelmingly common case. One
		// summary-bit probe, one copy, shift-based arithmetic throughout.
		if pi := off >> as.pageShift; off+len(buf) <= (pi+1)<<as.pageShift && !r.pages[pi].anyTaint {
			copy(buf, r.pages[pi].data[off&(ps-1):off&(ps-1)+len(buf)])
			as.fastWords += r.spanWords(off, len(buf))
			as.fastLoads++
			return nil
		}
		if r.cleanPages(off/ps, (off+len(buf)-1)/ps) {
			r.copyStored(buf, off)
			as.fastWords += r.spanWords(off, len(buf))
			as.fastLoads++
			return nil
		}
	}
	// Granule walk: a partially-tainted span, or the reference path.
	g := r.granule
	var word, check []byte
	if r.codec != nil {
		var owned bool
		word, check, owned = as.acquireScratch(g, r.checkBytes)
		defer as.releaseScratch(owned)
	}
	allClean := true
	for n := 0; n < len(buf); {
		o := off + n
		pi, inPage := o/ps, o%ps
		p := &r.pages[pi]
		wi := inPage / g
		lo := inPage - wi*g // first requested byte within the granule
		dst := buf[n:min(n+g-lo, len(buf))]
		switch {
		case as.fastPath && !p.wordTainted(wi):
			copy(dst, p.data[inPage:])
			as.fastWords++
		case r.codec == nil:
			allClean = false
			for i := range dst {
				dst[i] = p.senseByte(inPage + i)
			}
		default:
			allClean = false
			if err := as.decodeWord(r, pi, wi, word, check); err != nil {
				return err
			}
			copy(dst, word[lo:])
		}
		n += len(dst)
	}
	if allClean {
		as.fastLoads++
	}
	return nil
}

// spanWords counts the granules overlapped by the n-byte span at region
// offset off (n must be positive). It is the fast-path accounting unit:
// the number of codewords a decode-everything path would have visited.
func (r *Region) spanWords(off, n int) uint64 {
	if s := r.granShift; s >= 0 {
		return uint64((off+n-1)>>s - off>>s + 1)
	}
	g := r.granule
	return uint64((off+n-1)/g - off/g + 1)
}

// copyStored copies len(buf) stored bytes starting at region offset off
// into buf — raw page data, no stuck-at sensing. On untainted pages this
// equals sensing (no stuck-at state exists); the raw-access paths use it
// regardless of taint because they read storage by definition.
func (r *Region) copyStored(buf []byte, off int) {
	ps := r.as.pageSize
	for n := 0; n < len(buf); {
		o := off + n
		n += copy(buf[n:], r.pages[o/ps].data[o%ps:])
	}
}

// senseWord reads codeword wi of page p the way the device returns it:
// data bytes with stuck-at faults applied, check bytes as stored.
func (r *Region) senseWord(p *page, wi int, word, check []byte) {
	base := wi * r.granule
	for i := range word {
		word[i] = p.senseByte(base + i)
	}
	copy(check, p.check[wi*r.checkBytes:])
}

// decodeWord senses codeword wi of page pi into word/check and decodes
// it, running the software response on an uncorrectable pattern and
// accounting a correction. Like most memory controllers it corrects on
// the fly: the erroneous cells keep their contents until overwritten or
// scrubbed.
func (as *AddressSpace) decodeWord(r *Region, pi, wi int, word, check []byte) error {
	p := &r.pages[pi]
	r.senseWord(p, wi, word, check)
	verdict := r.codec.Decode(word, check)
	if verdict == VerdictUncorrectable {
		var err error
		if verdict, err = as.handleUncorrectable(r, pi, wi, word, check); err != nil {
			return err
		}
	}
	if verdict == VerdictCorrected {
		as.counters.Corrected++
		r.markDirty(pi)
		p.corrected++
		as.notifyECC(ECCEvent{Kind: ECCCorrected, Addr: r.wordAddr(pi, wi), Time: as.clock.Now(), Region: r})
	}
	return nil
}

// handleUncorrectable runs the software response for an uncorrectable
// error in codeword wi of page pi. On successful recovery it re-senses
// and re-decodes the word into word/check and returns the new verdict;
// otherwise it returns a machine-check fault.
func (as *AddressSpace) handleUncorrectable(r *Region, pi, wi int, word, check []byte) (Verdict, error) {
	as.counters.Uncorrectable++
	addr := r.wordAddr(pi, wi)
	as.notifyECC(ECCEvent{Kind: ECCUncorrectable, Addr: addr, Time: as.clock.Now(), Region: r})
	if r.mc == nil || r.mc.HandleMC(as, MCEvent{Addr: addr, Region: r}) != MCRecovered {
		return VerdictUncorrectable, &Fault{Kind: FaultMachineCheck, Addr: addr}
	}
	// The handler claims to have repaired storage; retry once.
	r.senseWord(&r.pages[pi], wi, word, check)
	v := r.codec.Decode(word, check)
	if v == VerdictUncorrectable {
		return v, &Fault{Kind: FaultMachineCheck, Addr: addr}
	}
	as.counters.Recovered++
	as.notifyECC(ECCEvent{Kind: ECCRecovered, Addr: addr, Time: as.clock.Now(), Region: r})
	return v, nil
}

// ReadRaw copies the stored bytes at addr into buf without sensing stuck
// bits, without ECC decoding, and without notifying observers. Tests and
// the outcome classifier use it to inspect ground truth.
func (as *AddressSpace) ReadRaw(addr Addr, buf []byte) error {
	r, err := as.locate(addr, len(buf))
	if err != nil {
		return err
	}
	r.copyStored(buf, int(addr-r.base))
	return nil
}
