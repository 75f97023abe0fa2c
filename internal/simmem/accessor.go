// Accessor: the batched region-access front end of the memory path.
//
// The three applications generate long runs of same-region accesses,
// but the runs interleave — every loop iteration touches both its
// stack frame and a data region, so a single shared one-entry region
// cache on the AddressSpace would thrash on every access. Each
// Accessor instead carries its own one-entry cache: code that holds
// one accessor per region stream (a frame accessor and a data
// accessor, say) resolves findRegion + bounds once per consecutive
// same-region run and then pays only a Contains check per access. The
// span itself — however many pages and codewords it covers — is then
// serviced in one walk against the per-word taint bitmap (loadSpan /
// storeEncoded), bulk-copying clean granules and decoding only dirty
// ones. The AddressSpace embeds one accessor as its own front end, so
// as.Load and a.Load are the same code.
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

// Load reads len(buf) bytes at addr through the full memory path:
// stuck-at faults are sensed, protected regions decode every covered
// (tainted) codeword — possibly correcting, possibly raising a machine
// check — and access observers are notified.
func (a *Accessor) Load(addr Addr, buf []byte) error {
	as := a.as
	r, err := a.locate(addr, len(buf))
	if err != nil {
		return err
	}
	if as.cache != nil {
		if err := as.cachedLoad(addr, buf); err != nil {
			return err
		}
	} else if err := as.loadSpan(r, int(addr-r.base), buf); err != nil {
		return err
	}
	as.counters.Loads++
	as.notifyAccess(AccessEvent{Addr: addr, Len: len(buf), Kind: Load, Time: as.clock.Now(), Region: r})
	return nil
}

// Store writes data at addr through the full memory path. Stores to
// read-only regions fault. In protected regions, partial codewords are
// read-modify-written: the untouched bytes are decoded first (which can
// itself raise a machine check), then the whole word is re-encoded.
func (a *Accessor) Store(addr Addr, data []byte) error {
	as := a.as
	r, err := a.locate(addr, len(data))
	if err != nil {
		return err
	}
	if r.readOnly {
		return &Fault{Kind: FaultReadOnly, Addr: addr}
	}
	off := int(addr - r.base)
	if as.cache != nil {
		if err := as.cachedStore(addr, data); err != nil {
			return err
		}
	} else if r.codec == nil {
		r.writeBytes(off, data)
	} else if err := as.storeEncoded(r, off, data, false); err != nil {
		return err
	}
	as.counters.Stores++
	as.notifyAccess(AccessEvent{Addr: addr, Len: len(data), Kind: Store, Time: as.clock.Now(), Region: r})
	return nil
}

// Typed accessors. All use little-endian byte order.

// LoadU64 loads a 64-bit value.
func (a *Accessor) LoadU64(addr Addr) (uint64, error) {
	var b [8]byte
	if err := a.Load(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// StoreU64 stores a 64-bit value.
func (a *Accessor) StoreU64(addr Addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return a.Store(addr, b[:])
}

// LoadU32 loads a 32-bit value.
func (a *Accessor) LoadU32(addr Addr) (uint32, error) {
	var b [4]byte
	if err := a.Load(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// StoreU32 stores a 32-bit value.
func (a *Accessor) StoreU32(addr Addr, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return a.Store(addr, b[:])
}

// LoadU8 loads one byte.
func (a *Accessor) LoadU8(addr Addr) (byte, error) {
	var b [1]byte
	if err := a.Load(addr, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// StoreU8 stores one byte.
func (a *Accessor) StoreU8(addr Addr, v byte) error {
	b := [1]byte{v}
	return a.Store(addr, b[:])
}

// LoadF64 loads a float64.
func (a *Accessor) LoadF64(addr Addr) (float64, error) {
	u, err := a.LoadU64(addr)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(u), nil
}

// StoreF64 stores a float64.
func (a *Accessor) StoreF64(addr Addr, v float64) error {
	return a.StoreU64(addr, math.Float64bits(v))
}
