// The store path: plain byte writes for unprotected regions, the
// codeword read-modify-write for protected ones, and raw writes.

package simmem

// writeBytes writes raw bytes at region offset off (no encoding).
func (r *Region) writeBytes(off int, data []byte) {
	ps := r.as.pageSize
	for len(data) > 0 {
		pi := off / ps
		r.markDirty(pi)
		p := &r.pages[pi]
		inPage := off % ps
		n := copy(p.data[inPage:], data)
		data = data[n:]
		off += n
	}
}

// storeEncoded writes data at region offset off in a protected region,
// re-encoding every touched codeword. A partially covered codeword is
// read-modify-written: an application store (raw false) decodes the
// existing word first, so latent errors in the untouched bytes are
// handled — possibly raising a machine check — rather than laundered
// into a fresh valid codeword. A raw write keeps the untouched bytes'
// stored (possibly erroneous) values, and for an untainted word the
// taint invariant makes sense-and-decode a no-op, so both skip it.
func (as *AddressSpace) storeEncoded(r *Region, off int, data []byte, raw bool) error {
	w, c := r.granule, r.checkBytes
	ps := as.pageSize
	end := off + len(data)
	var word, check []byte
	if !raw && (off%w != 0 || end%w != 0) {
		var owned bool
		word, check, owned = as.acquireScratch(w, c)
		defer as.releaseScratch(owned)
	}
	// pi/wi step with wo, so the walk divides once, not per codeword.
	first := off / w * w
	pi, wi := first>>as.pageShift, (first&(ps-1))/w
	for wo := first; wo < end; wo, wi = wo+w, wi+1 {
		if wi == r.wordsPerPage {
			pi, wi = pi+1, 0
		}
		r.markDirty(pi)
		p := &r.pages[pi]
		d := p.data[wi*w : (wi+1)*w]
		partial := wo < off || wo+w > end
		if partial && !raw && (!as.fastPath || p.wordTainted(wi)) {
			if err := as.decodeWord(r, pi, wi, word, check); err != nil {
				return err
			}
			copy(d, word)
		}
		lo, hi := max(wo, off), min(wo+w, end)
		copy(d[lo-wo:hi-wo], data[lo-off:])
		r.codec.Encode(d, p.check[wi*c:(wi+1)*c])
		// The word was just re-encoded from decoded (or provably clean)
		// data, so it satisfies the taint invariant again unless stuck-at
		// state covers it: the paper's masking-by-overwrite, applied to
		// the fast path. Taint transitions never depend on fastPath.
		if p.anyTaint && !p.stuckInRange(wi*w, (wi+1)*w) {
			r.clearWordTaint(pi, wi)
		}
	}
	return nil
}

// wholeWords reports whether the n-byte span at region offset off covers
// whole aligned codewords only, so storing it needs no decode.
func (r *Region) wholeWords(off, n int) bool {
	return r.granShift >= 0 && (off|n)&(r.granule-1) == 0
}

// encodeWords re-encodes the codewords covering page bytes [lo, hi) of
// p, which must be word-aligned: the check bytes of a whole-word store.
func (r *Region) encodeWords(p *page, lo, hi int) {
	w, c := r.granule, r.checkBytes
	for wo, co := lo, lo>>r.granShift*c; wo < hi; wo, co = wo+w, co+c {
		r.codec.Encode(p.data[wo:wo+w], p.check[co:co+c])
	}
}

// WriteRaw writes bytes at addr bypassing the read-only flag and access
// observers, re-encoding check storage so protected regions stay
// consistent. Region initialization (loading an index into a read-only
// cache) and software recovery use it. Untouched codewords keep whatever
// errors (and taint bits) they had; a future raw write path that skips
// the re-encode must taint the covered words instead.
func (as *AddressSpace) WriteRaw(addr Addr, data []byte) error {
	r, err := as.locate(addr, len(data))
	if err != nil {
		return err
	}
	off := int(addr - r.base)
	if r.codec == nil {
		r.writeBytes(off, data)
		return nil
	}
	return as.storeEncoded(r, off, data, true)
}
