// Regions: the Table 2 classification, mapping, geometry and lookup.

package simmem

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// RegionKind classifies application memory regions per Table 2.
type RegionKind int

// Region kinds.
const (
	// RegionPrivate is pre-allocated user-managed memory (VirtualAlloc /
	// mmap), e.g. WebSearch's read-only index cache.
	RegionPrivate RegionKind = iota + 1
	// RegionHeap holds dynamically allocated data.
	RegionHeap
	// RegionStack holds function parameters and local variables.
	RegionStack
	// RegionOther is program code, managed heap, and so on.
	RegionOther
)

// String returns the region kind name as used in the paper's tables.
func (k RegionKind) String() string {
	switch k {
	case RegionPrivate:
		return "private"
	case RegionHeap:
		return "heap"
	case RegionStack:
		return "stack"
	case RegionOther:
		return "other"
	default:
		return fmt.Sprintf("region(%d)", int(k))
	}
}

// RegionSpec describes a region to map.
type RegionSpec struct {
	// Name identifies the region (unique within the address space).
	Name string
	// Kind is the Table 2 classification.
	Kind RegionKind
	// Size is the mapped size in bytes; it is rounded up to a whole
	// number of pages.
	Size int
	// ReadOnly rejects application stores (setup and recovery writes go
	// through WriteRaw). WebSearch's index cache is read-only.
	ReadOnly bool
	// Backed maintains a persistent-storage shadow copy used by the
	// recoverability analysis and by Par+R software recovery.
	Backed bool
	// Codec is the hardware protection technique; nil means no
	// detection/correction (NoECC).
	Codec Codec
	// MC handles uncorrectable errors; nil means they crash the
	// application.
	MC MCHandler
}

// regionGap leaves unmapped guard space between regions so corrupted
// pointers usually fault rather than silently landing in a neighbour.
const regionGap = 1 << 20

// firstBase is the base address of the first mapped region; addresses below
// it are never mapped, so small corrupted offsets fault.
const firstBase Addr = 1 << 16

// AddRegion maps a new region after the existing ones.
func (as *AddressSpace) AddRegion(spec RegionSpec) (*Region, error) {
	if spec.Size <= 0 {
		return nil, fmt.Errorf("simmem: region %q size must be positive, got %d", spec.Name, spec.Size)
	}
	if as.RegionByName(spec.Name) != nil {
		return nil, fmt.Errorf("simmem: region %q already mapped", spec.Name)
	}
	if spec.Codec != nil {
		w := spec.Codec.WordBytes()
		if w <= 0 || as.pageSize%w != 0 {
			return nil, fmt.Errorf("simmem: codec %q word size %d does not divide page size %d",
				spec.Codec.Name(), w, as.pageSize)
		}
		if spec.Codec.CheckBytes() <= 0 {
			return nil, fmt.Errorf("simmem: codec %q has no check storage", spec.Codec.Name())
		}
		// Pre-size the shared scratch so the decode/encode paths never
		// allocate in steady state.
		if cap(as.scratchWord) < w {
			as.scratchWord = make([]byte, w)
		}
		if c := spec.Codec.CheckBytes(); cap(as.scratchCheck) < c {
			as.scratchCheck = make([]byte, c)
		}
	}
	// Round size up to whole pages.
	npages := (spec.Size + as.pageSize - 1) / as.pageSize
	size := npages * as.pageSize

	base := firstBase
	if n := len(as.regions); n > 0 {
		last := as.regions[n-1]
		base = last.base + Addr(last.size) + regionGap
	}
	r := &Region{
		as:       as,
		name:     spec.Name,
		kind:     spec.Kind,
		base:     base,
		size:     size,
		readOnly: spec.ReadOnly,
		codec:    spec.Codec,
		mc:       spec.MC,
		pages:    make([]page, npages),
	}
	// Unprotected regions have no codeword structure, so taint tracks
	// fixed 64-byte chunks (or the whole page when pages are smaller) —
	// fine-grained enough that one stuck bit does not slow the rest of
	// the page, coarse enough that bitmaps stay tiny.
	r.granule = 64
	if r.granule > as.pageSize {
		r.granule = as.pageSize
	}
	if spec.Codec != nil {
		r.granule = spec.Codec.WordBytes()
	}
	r.granShift = -1
	if r.granule&(r.granule-1) == 0 {
		r.granShift = bits.TrailingZeros(uint(r.granule))
	}
	if spec.Codec != nil {
		r.checkBytes = spec.Codec.CheckBytes()
	}
	r.wordsPerPage = as.pageSize / r.granule
	r.taintLen = (r.wordsPerPage + 63) / 64
	checkPerPage := 0
	if spec.Codec != nil {
		checkPerPage = as.pageSize / spec.Codec.WordBytes() * spec.Codec.CheckBytes()
	}
	for i := range r.pages {
		p := &r.pages[i]
		p.data = make([]byte, as.pageSize)
		if checkPerPage > 0 {
			p.check = make([]byte, checkPerPage)
		}
	}
	if spec.Backed {
		r.backing = make([]byte, size)
	}
	as.regions = append(as.regions, r)
	return r, nil
}

// Region is a contiguous mapped range of the address space.
type Region struct {
	as       *AddressSpace
	name     string
	kind     RegionKind
	base     Addr
	size     int
	readOnly bool
	codec    Codec
	mc       MCHandler
	pages    []page
	backing  []byte
	used     int
	// Taint-bitmap geometry: granule is the taint tracking unit in
	// bytes — the codec word size in protected regions (taint must align
	// with what a decode covers), a fixed sub-page chunk otherwise. It
	// always divides the page size. wordsPerPage and taintLen (uint64
	// words per page bitmap) are derived once at mapping time.
	granule      int
	granShift    int // log2(granule) when it is a power of two, else -1
	checkBytes   int // codec.CheckBytes(), cached off the hot path (0 if nil)
	wordsPerPage int
	taintLen     int
	// Dirty-page tracking for the snapshot layer (snapshot.go): nil
	// until a snapshot arms it, then a per-page dirtied flag plus the
	// list of dirtied page indices (what Restore walks).
	dirty     []bool
	dirtyList []int
}

// Name returns the region name.
func (r *Region) Name() string { return r.name }

// Kind returns the Table 2 classification.
func (r *Region) Kind() RegionKind { return r.kind }

// Base returns the first mapped address.
func (r *Region) Base() Addr { return r.base }

// Size returns the mapped size in bytes.
func (r *Region) Size() int { return r.size }

// ReadOnly reports whether application stores are rejected.
func (r *Region) ReadOnly() bool { return r.readOnly }

// Backed reports whether the region has a persistent-storage shadow.
func (r *Region) Backed() bool { return r.backing != nil }

// Codec returns the protection codec, or nil for NoECC.
func (r *Region) Codec() Codec { return r.codec }

// SetMCHandler installs (or clears) the uncorrectable-error software
// response for this region.
func (r *Region) SetMCHandler(h MCHandler) { r.mc = h }

// Used returns the high-water mark of bytes actually occupied by
// application data, as reported by the region's allocator. Error-injection
// address sampling draws only from used bytes, matching the paper's
// sampling of valid application addresses.
func (r *Region) Used() int { return r.used }

// SetUsed records the number of occupied bytes (clamped to the region
// size).
func (r *Region) SetUsed(n int) {
	if n < 0 {
		n = 0
	}
	if n > r.size {
		n = r.size
	}
	r.used = n
}

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr Addr) bool {
	return addr >= r.base && addr < r.base+Addr(r.size)
}

// PageCount returns the number of page frames.
func (r *Region) PageCount() int { return len(r.pages) }

// PageIndex returns the page number containing addr, which must be inside
// the region.
func (r *Region) PageIndex(addr Addr) int {
	return int(addr-r.base) / r.as.pageSize
}

// PageAddr returns the first address of page i.
func (r *Region) PageAddr(i int) Addr {
	return r.base + Addr(i*r.as.pageSize)
}

// wordAddr returns the first address of granule wi of page pi.
func (r *Region) wordAddr(pi, wi int) Addr {
	return r.PageAddr(pi) + Addr(wi*r.granule)
}

// CorrectedOnPage returns the number of corrected-error events observed on
// page i since its frame was last replaced. Page-retirement policies use
// this as their threshold input.
func (r *Region) CorrectedOnPage(i int) uint64 { return r.pages[i].corrected }

// Replacements returns how many times page i's frame has been replaced.
func (r *Region) Replacements(i int) int { return r.pages[i].replaced }

// lookupRegion is the uncached region lookup: a binary search over the
// region bases (regions are mapped in ascending address order and never
// removed, so the slice is always sorted).
func (as *AddressSpace) lookupRegion(addr Addr) *Region {
	regions := as.regions
	lo, hi := 0, len(regions)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r := regions[mid]; addr >= r.base+Addr(r.size) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(regions) && regions[lo].Contains(addr) {
		return regions[lo]
	}
	return nil
}

// SampleAddr picks a uniformly random used byte address across the regions
// accepted by filter (all regions when filter is nil), weighting regions by
// their used sizes — the paper's "randomly select a valid byte-aligned
// application memory address". It returns false when no accepted region
// has any used bytes.
func (as *AddressSpace) SampleAddr(rng *rand.Rand, filter func(*Region) bool) (Addr, bool) {
	total := 0
	for _, r := range as.regions {
		if filter == nil || filter(r) {
			total += r.used
		}
	}
	if total == 0 {
		return 0, false
	}
	n := rng.Intn(total)
	for _, r := range as.regions {
		if filter != nil && !filter(r) {
			continue
		}
		if n < r.used {
			return r.base + Addr(n), true
		}
		n -= r.used
	}
	// Unreachable: the weights sum to total.
	return 0, false
}
