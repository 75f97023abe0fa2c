package simmem

import "fmt"

// CacheLineBytes is the processor cache line size of the optional cache
// model.
const CacheLineBytes = 64

// cacheLine is one direct-mapped line.
type cacheLine struct {
	base  Addr // first address covered; valid only when set
	valid bool
	dirty bool
	data  [CacheLineBytes]byte
}

// cache is a direct-mapped write-back write-allocate cache sitting in
// front of the memory path. The paper notes its debugger-based injection
// is conservative precisely because real caches delay error visibility:
// a cached line keeps serving clean data after memory under it is
// corrupted, and dirty write-backs overwrite (mask) errors. Enabling the
// cache model reproduces that effect; the default is off, matching the
// paper's conservative methodology.
type cache struct {
	lines                    []cacheLine
	hits, misses, writeBacks uint64
}

// cacheIndex maps an address to its line slot.
func (c *cache) index(lineBase Addr) int {
	return int(uint64(lineBase) / CacheLineBytes % uint64(len(c.lines)))
}

// EnableCache activates the cache model with the given number of lines.
// It must be called before any cached accesses; the page size must be at
// least one cache line so lines never straddle a region boundary.
func (as *AddressSpace) EnableCache(lines int) error {
	if lines <= 0 {
		return fmt.Errorf("simmem: cache lines must be positive, got %d", lines)
	}
	if as.pageSize < CacheLineBytes {
		return fmt.Errorf("simmem: cache model requires page size >= %d, have %d",
			CacheLineBytes, as.pageSize)
	}
	as.cache = &cache{lines: make([]cacheLine, lines)}
	return nil
}

// CacheEnabled reports whether the cache model is on. With it on, what a
// load returns depends on line residency, not only on memory contents.
func (as *AddressSpace) CacheEnabled() bool { return as.cache != nil }

// CacheStats reports cache model counters (zero when disabled).
func (as *AddressSpace) CacheStats() (hits, misses, writeBacks uint64) {
	if as.cache == nil {
		return 0, 0, 0
	}
	return as.cache.hits, as.cache.misses, as.cache.writeBacks
}

// FlushCache writes back every dirty line and invalidates the cache, like
// a wbinvd. It is a no-op when the model is disabled.
func (as *AddressSpace) FlushCache() error {
	if as.cache == nil {
		return nil
	}
	for i := range as.cache.lines {
		ln := &as.cache.lines[i]
		if ln.valid && ln.dirty {
			if err := as.writeBackLine(ln); err != nil {
				return err
			}
		}
		ln.valid = false
		ln.dirty = false
	}
	return nil
}

// writeBackLine stores a dirty line's contents to memory (re-encoding
// check storage), without access events.
func (as *AddressSpace) writeBackLine(ln *cacheLine) error {
	as.cache.writeBacks++
	return as.WriteRaw(ln.base, ln.data[:])
}

// ensureLine makes the line covering addr resident and returns it. Fills
// go through the full uncached memory path, so ECC decoding (and machine
// checks, and their software responses) happen at fill time — as in real
// hardware, where the memory controller checks on cache-line fills.
func (as *AddressSpace) ensureLine(addr Addr) (*cacheLine, error) {
	base := addr / CacheLineBytes * CacheLineBytes
	ln := &as.cache.lines[as.cache.index(base)]
	if ln.valid && ln.base == base {
		as.cache.hits++
		return ln, nil
	}
	as.cache.misses++
	if ln.valid && ln.dirty {
		if err := as.writeBackLine(ln); err != nil {
			return nil, err
		}
	}
	ln.valid = false
	ln.dirty = false
	// Fill from memory. Fills resolve through their own accessor so a
	// line fill never evicts the application accessor's cached region.
	r, err := as.fillAcc.locate(base, CacheLineBytes)
	if err != nil {
		return nil, err
	}
	if err := as.loadSpan(r, int(base-r.base), ln.data[:]); err != nil {
		return nil, err
	}
	ln.base = base
	ln.valid = true
	return ln, nil
}

// cachedLoad serves a load through the cache model.
func (as *AddressSpace) cachedLoad(addr Addr, buf []byte) error {
	off := 0
	for off < len(buf) {
		a := addr + Addr(off)
		ln, err := as.ensureLine(a)
		if err != nil {
			return err
		}
		inLine := int(a - ln.base)
		n := copy(buf[off:], ln.data[inLine:])
		off += n
	}
	return nil
}

// cachedStore serves a store through the cache model (write-allocate).
func (as *AddressSpace) cachedStore(addr Addr, data []byte) error {
	off := 0
	for off < len(data) {
		a := addr + Addr(off)
		ln, err := as.ensureLine(a)
		if err != nil {
			return err
		}
		inLine := int(a - ln.base)
		n := copy(ln.data[inLine:], data[off:])
		ln.dirty = true
		off += n
	}
	return nil
}
