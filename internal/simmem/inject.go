// Error injection (the Algorithm 1(a) primitive).

package simmem

import "fmt"

// FlipBit flips one stored data bit: bit index 0..7 within the byte at
// addr. It models a soft error: the flip is persistent until the byte is
// overwritten, invisible to ECC until the word is next decoded, and does
// not notify observers.
func (as *AddressSpace) FlipBit(addr Addr, bit int) error {
	if bit < 0 || bit > 7 {
		return fmt.Errorf("simmem: bit index %d out of range [0,7]", bit)
	}
	r, err := as.locate(addr, 1)
	if err != nil {
		return err
	}
	off := int(addr - r.base)
	pi := off / as.pageSize
	if r.codec != nil {
		// The flip can surface on the next decode of its codeword; the
		// rest of the page is untouched.
		r.taintWord(pi, r.wordIndex(off))
	} else {
		// An unprotected region has nothing to decode: sensed bytes equal
		// stored bytes (no stuck-at state is involved in a soft flip), so
		// the invariant still holds and the fast bulk copy returns the
		// flipped byte exactly as per-byte sensing would. Only the data
		// mutation needs recording for snapshot rollback.
		r.markDirty(pi)
	}
	r.pages[pi].data[off%as.pageSize] ^= 1 << bit
	return nil
}

// FlipCheckBit flips one stored check bit of the codeword containing addr
// (bit counts across the word's check bytes, LSB-first). It returns an
// error for unprotected regions.
func (as *AddressSpace) FlipCheckBit(addr Addr, bit int) error {
	r, err := as.locate(addr, 1)
	if err != nil {
		return err
	}
	if r.codec == nil {
		return fmt.Errorf("simmem: region %q has no check storage", r.name)
	}
	c := r.codec.CheckBytes()
	if bit < 0 || bit >= c*8 {
		return fmt.Errorf("simmem: check bit %d out of range [0,%d)", bit, c*8)
	}
	w := r.codec.WordBytes()
	off := int(addr-r.base) / w * w
	pi := off / as.pageSize
	wordIdx := (off % as.pageSize) / w
	r.taintWord(pi, wordIdx)
	r.pages[pi].check[wordIdx*c+bit/8] ^= 1 << (bit % 8)
	return nil
}

// StickBit installs a stuck-at fault on one data bit: the cell will sense
// as value (0 or 1) regardless of what is stored, modelling a hard error.
// Overwrites do not clear it; only frame replacement (page retirement)
// does.
func (as *AddressSpace) StickBit(addr Addr, bit, value int) error {
	if bit < 0 || bit > 7 {
		return fmt.Errorf("simmem: bit index %d out of range [0,7]", bit)
	}
	if value != 0 && value != 1 {
		return fmt.Errorf("simmem: stuck value must be 0 or 1, got %d", value)
	}
	r, err := as.locate(addr, 1)
	if err != nil {
		return err
	}
	off := int(addr - r.base)
	pi := off / as.pageSize
	// A stuck cell makes sensing diverge from storage, so the covering
	// granule leaves the fast path (in any region kind) until frame
	// replacement discards the fault.
	r.taintWord(pi, r.wordIndex(off))
	p := &r.pages[pi]
	i := off % as.pageSize
	mask := byte(1) << bit
	if value == 1 {
		if p.stuckSet == nil {
			p.stuckSet = make([]byte, as.pageSize)
		}
		p.stuckSet[i] |= mask
		if p.stuckClr != nil {
			p.stuckClr[i] &^= mask
		}
	} else {
		if p.stuckClr == nil {
			p.stuckClr = make([]byte, as.pageSize)
		}
		p.stuckClr[i] |= mask
		if p.stuckSet != nil {
			p.stuckSet[i] &^= mask
		}
	}
	return nil
}
