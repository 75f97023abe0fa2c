// Accessor: the batched region-access front end of the memory path.
//
// The three applications generate long runs of same-region accesses,
// but the runs interleave — every loop iteration touches both its
// stack frame and a data region, so a single shared one-entry region
// cache on the AddressSpace would thrash on every access. Each
// Accessor instead carries its own one-entry cache: code that holds
// one accessor per region stream (a frame accessor and a data
// accessor, say) resolves findRegion once per consecutive same-region
// run. Load and Store open with one fast check against that cache
// (cleanSpan): a span the cached region holds whole, inside one
// untainted page, with the fast path on, is served there — one copy
// (or, for the typed loads, one little-endian read) and, for a store,
// the re-encode of whole codewords — with the same counters and events
// as the full path. Any other access takes the full path: locate, then
// one walk of the span against the per-word taint bitmap (loadSpan /
// storeEncoded), bulk-copying clean granules and decoding only dirty
// ones. The AddressSpace embeds one accessor as its
// own front end, so as.Load and a.Load are the same code.
//
// Cache invalidation rule: there is none, deliberately. Regions are
// append-only — they are never unmapped, moved, or resized after
// AddRegion — so a cached *Region stays valid for the life of the
// address space, and a region mapped after the cache was populated is
// still found (a cache miss falls through to the binary search over
// the current region table). The cache never needs flushing, including
// across Snapshot/Restore (which restores page contents, not the
// region layout).

package simmem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Accessor is an independent access handle onto an AddressSpace with
// its own one-entry region cache. Accessors are not safe for concurrent
// use (the AddressSpace itself is single-goroutine; see gate.go for the
// shared-server discipline), cost nothing to create, and any number may
// coexist.
type Accessor struct {
	as   *AddressSpace
	last *Region
}

// accessor lets AddressSpace embed its default Accessor unexported: the
// methods promote, the field stays private.
type accessor = Accessor

// NewAccessor returns an accessor with a cold region cache.
func (as *AddressSpace) NewAccessor() *Accessor {
	return &Accessor{as: as}
}

// findRegion locates the region containing addr: the accessor's
// one-entry cache, then the binary search.
func (a *Accessor) findRegion(addr Addr) *Region {
	if r := a.last; r != nil && r.Contains(addr) {
		return r
	}
	if r := a.as.lookupRegion(addr); r != nil {
		a.last = r
		return r
	}
	return nil
}

// locate resolves an access of n bytes at addr to a region, returning a
// fault if the range is unmapped or runs off the end of its region.
func (a *Accessor) locate(addr Addr, n int) (*Region, error) {
	if n < 0 {
		return nil, fmt.Errorf("simmem: negative access length %d", n)
	}
	r := a.findRegion(addr)
	if r == nil {
		return nil, &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	if addr+Addr(n) > r.base+Addr(r.size) {
		return nil, &Fault{Kind: FaultOutOfRange, Addr: addr}
	}
	return r, nil
}

// cleanSpan is the front end's fast check. It returns the region, the
// region offset and the page frame of the n-byte access at addr when the
// access needs neither the region lookup nor the span walk: the
// accessor's cached region holds the whole span, the fast path is on,
// and the span sits in one untainted page. Any other access gets a nil
// page and takes the full path. The bound is unsigned throughout: once
// n is at most a page (so at most r.size), neither addr-r.base nor
// r.size-n can wrap, and a wild address — below the base, past the end,
// near 2^64 — falls through to locate's fault.
func (a *Accessor) cleanSpan(addr Addr, n int) (*Region, int, *page) {
	r, as := a.last, a.as
	if r == nil || !as.fastPath || uint(n-1) >= uint(as.pageSize) ||
		addr < r.base || addr-r.base > Addr(r.size-n) {
		return nil, 0, nil
	}
	off := int(addr - r.base)
	pi := off >> as.pageShift
	if (off+n-1)>>as.pageShift != pi || r.pages[pi].anyTaint {
		return nil, 0, nil
	}
	return r, off, &r.pages[pi]
}

// Load reads len(buf) bytes at addr through the full memory path:
// stuck-at faults are sensed, protected regions decode every covered
// (tainted) codeword — possibly correcting, possibly raising a machine
// check — and access observers are notified. A span cleanSpan passes is
// one copy: the taint invariant makes sensing and decoding it a no-op.
func (a *Accessor) Load(addr Addr, buf []byte) error {
	as := a.as
	if r, off, p := a.cleanSpan(addr, len(buf)); p != nil {
		copy(buf, p.data[off&(as.pageSize-1):])
		as.cleanLoaded(r, addr, off, len(buf))
		return nil
	}
	r, err := a.locate(addr, len(buf))
	if err != nil {
		return err
	}
	if err = as.loadSpan(r, int(addr-r.base), buf); err != nil {
		return err
	}
	as.counters.Loads++
	if len(as.accessObs) > 0 {
		as.notifyAccess(Load, r, addr, len(buf))
	}
	return nil
}

// loadScalar is Load in the fixed-size form the typed loads share: the
// n-byte (1, 4 or 8) little-endian value at addr, zero-extended. A clean
// access decodes the value straight out of the page frame, before the
// observers run, as Load's copy does.
func (a *Accessor) loadScalar(addr Addr, n int) (uint64, error) {
	r, off, p := a.cleanSpan(addr, n)
	if p == nil {
		var b [8]byte
		if err := a.Load(addr, b[:n]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	var v uint64
	switch d := p.data[off&(a.as.pageSize-1):]; n {
	case 8:
		v = binary.LittleEndian.Uint64(d)
	case 4:
		v = uint64(binary.LittleEndian.Uint32(d))
	default:
		v = uint64(d[0])
	}
	a.as.cleanLoaded(r, addr, off, n)
	return v, nil
}

// cleanLoaded accounts a load cleanSpan passed: one fast-path load over
// the span's granules, then what every load counts and reports.
func (as *AddressSpace) cleanLoaded(r *Region, addr Addr, off, n int) {
	as.fastWords += r.spanWords(off, n)
	as.fastLoads++
	as.counters.Loads++
	if len(as.accessObs) > 0 {
		as.notifyAccess(Load, r, addr, n)
	}
}

// Store writes data at addr through the full memory path. Stores to
// read-only regions fault. In protected regions, partial codewords are
// read-modify-written: the untouched bytes are decoded first (which can
// itself raise a machine check), then the whole word is re-encoded. A
// span cleanSpan passes, in a writable region, that is unprotected or
// covers whole aligned codewords, is one copy plus the re-encode of its
// words: no word needs a decode, and on an untainted page no taint bit
// can change.
func (a *Accessor) Store(addr Addr, data []byte) error {
	as := a.as
	r, off, p := a.cleanSpan(addr, len(data))
	if p != nil && !r.readOnly && (r.codec == nil || r.wholeWords(off, len(data))) {
		in := off & (as.pageSize - 1)
		r.markDirty(off >> as.pageShift)
		copy(p.data[in:], data)
		if r.codec != nil {
			r.encodeWords(p, in, in+len(data))
		}
	} else {
		var err error
		if r, err = a.locate(addr, len(data)); err != nil {
			return err
		}
		if r.readOnly {
			return &Fault{Kind: FaultReadOnly, Addr: addr}
		}
		off = int(addr - r.base)
		if r.codec == nil {
			r.writeBytes(off, data)
		} else if err = as.storeEncoded(r, off, data, false); err != nil {
			return err
		}
	}
	as.counters.Stores++
	if len(as.accessObs) > 0 {
		as.notifyAccess(Store, r, addr, len(data))
	}
	return nil
}

// Typed accessors. All use little-endian byte order.

// LoadU64 loads a 64-bit value.
func (a *Accessor) LoadU64(addr Addr) (uint64, error) {
	return a.loadScalar(addr, 8)
}

// StoreU64 stores a 64-bit value.
func (a *Accessor) StoreU64(addr Addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return a.Store(addr, b[:])
}

// LoadU32 loads a 32-bit value.
func (a *Accessor) LoadU32(addr Addr) (uint32, error) {
	v, err := a.loadScalar(addr, 4)
	return uint32(v), err
}

// StoreU32 stores a 32-bit value.
func (a *Accessor) StoreU32(addr Addr, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return a.Store(addr, b[:])
}

// LoadU8 loads one byte.
func (a *Accessor) LoadU8(addr Addr) (byte, error) {
	v, err := a.loadScalar(addr, 1)
	return byte(v), err
}

// StoreU8 stores one byte.
func (a *Accessor) StoreU8(addr Addr, v byte) error {
	b := [1]byte{v}
	return a.Store(addr, b[:])
}

// LoadF64 loads a float64.
func (a *Accessor) LoadF64(addr Addr) (float64, error) {
	u, err := a.loadScalar(addr, 8)
	return math.Float64frombits(u), err
}

// StoreF64 stores a float64.
func (a *Accessor) StoreF64(addr Addr, v float64) error {
	return a.StoreU64(addr, math.Float64bits(v))
}
