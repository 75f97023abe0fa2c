// Package simmem implements the simulated memory subsystem that the whole
// framework is built on: a byte-addressable address space divided into
// application memory regions (private, heap, stack — Table 2 of the paper),
// with pluggable per-region protection codecs (ECC), stuck-at fault state
// for hard errors, access observation hooks for the monitoring framework,
// optional persistent backing storage for recoverability experiments, and a
// virtual clock.
//
// It substitutes for the paper's WinDbg-based manipulation of live process
// memory: applications in internal/apps store all of their data structures
// in an AddressSpace and access them through Load/Store, so injected bit
// flips corrupt the actual bytes those applications parse and traverse.
// Crashes, incorrect results, and masking then emerge from real execution
// rather than from a closed-form model.
package simmem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// Addr is a simulated virtual address.
type Addr uint64

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

// Config configures an AddressSpace.
type Config struct {
	// PageSize is the memory page granularity in bytes (used for page
	// retirement and checkpoint flushing). Defaults to 4096. Must be a
	// power of two and a multiple of every region codec's word size.
	PageSize int
	// Clock is the virtual time source. A new zero clock is created if
	// nil.
	Clock *Clock
	// ScrubOnCorrect writes corrected data back to memory on every
	// corrected load (demand scrubbing). Off by default: like most
	// memory controllers, corrections are made on the fly and the
	// erroneous cells keep their contents until overwritten.
	ScrubOnCorrect bool
	// DisableFastPath turns off the clean-page fast path, forcing every
	// access through per-byte sensing and per-word decoding. The fast
	// path is bit-identical to the slow path (see the taint invariant in
	// DESIGN.md); this knob exists so equivalence tests and benchmarks
	// can drive the reference slow path over identical workloads.
	DisableFastPath bool
}

// Counters aggregates access and protection statistics for an address
// space.
type Counters struct {
	Loads         uint64
	Stores        uint64
	Corrected     uint64 // corrected-error decode events
	Uncorrectable uint64 // uncorrectable decode events (before software response)
	Recovered     uint64 // uncorrectable events repaired by an MCHandler
}

// AddressSpace is one application's simulated memory. It is not safe for
// concurrent use; characterization campaigns create one address space per
// trial goroutine.
type AddressSpace struct {
	pageSize       int
	pageShift      int // log2(pageSize); page size is a validated power of two
	clock          *Clock
	scrubOnCorrect bool
	regions        []*Region
	accessObs      []AccessObserver
	eccObs         []ECCObserver
	counters       Counters
	cache          *cache    // nil unless EnableCache was called
	snap           *Snapshot // active capture (snapshot.go), nil until Snapshot
	// fastPath gates the clean-word fast path (on unless
	// Config.DisableFastPath); fastLoads counts load operations (Load
	// calls and cache-line fills) it served without decoding a word or
	// sensing a byte, and fastWords counts the individual granules bulk-
	// copied that way (partially-fast loads advance fastWords but not
	// fastLoads). Both counters are monotonic across snapshot restores:
	// they are observability, not simulated state.
	fastPath  bool
	fastLoads uint64
	fastWords uint64
	// acc is the default accessor behind the AddressSpace-level
	// Load/Store API; fillAcc serves cache-line fills so fill lookups
	// never thrash an application accessor's one-entry region cache.
	// Additional independent accessors come from NewAccessor.
	acc     Accessor
	fillAcc Accessor
	// Reusable scratch for the word/check (and raw-write widening)
	// buffers of the decode/encode paths. scratchBusy guards against
	// reentrancy: an MC handler or observer that re-enters the memory
	// path while a frame up the stack holds the scratch falls back to
	// allocating (reentrant paths only run when real errors are being
	// handled, never on the clean hot path).
	scratchWord  []byte
	scratchCheck []byte
	scratchBusy  bool
	// gate serializes whole logical operations when the space is shared
	// by a live server's connection goroutines and a fault injector; see
	// gate.go. Single-goroutine users (the campaign engine) never touch
	// it.
	gate sync.Mutex
}

// New creates an empty address space.
func New(cfg Config) (*AddressSpace, error) {
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if cfg.PageSize < 16 || cfg.PageSize&(cfg.PageSize-1) != 0 {
		return nil, fmt.Errorf("simmem: page size %d is not a power of two >= 16", cfg.PageSize)
	}
	if cfg.Clock == nil {
		cfg.Clock = &Clock{}
	}
	as := &AddressSpace{
		pageSize:       cfg.PageSize,
		pageShift:      bits.TrailingZeros(uint(cfg.PageSize)),
		clock:          cfg.Clock,
		scrubOnCorrect: cfg.ScrubOnCorrect,
		fastPath:       !cfg.DisableFastPath,
	}
	as.acc.as = as
	as.fillAcc.as = as
	return as, nil
}

// SetFastPath enables or disables the clean-page fast path and returns
// the previous setting. Both settings produce bit-identical data,
// counters, events, and faults; differential tests and benchmarks use
// this to compare the two paths on a space built by code that does not
// expose Config.DisableFastPath.
func (as *AddressSpace) SetFastPath(on bool) bool {
	prev := as.fastPath
	as.fastPath = on
	return prev
}

// FastPathLoads returns the number of load operations (Load calls and
// cache-line fills) served entirely from untainted granules — bulk
// copies with no per-byte sensing and no codeword decoding. The counter
// is monotonic: snapshot restores do not roll it back.
func (as *AddressSpace) FastPathLoads() uint64 { return as.fastLoads }

// FastPathWords returns the number of individual granules (codewords in
// protected regions) the fast path served as bulk copies, including the
// clean granules of partially-tainted loads. Monotonic, like
// FastPathLoads.
func (as *AddressSpace) FastPathWords() uint64 { return as.fastWords }

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
		for _, p := range r.pages {
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

// Clock returns the address space's virtual clock.
func (as *AddressSpace) Clock() *Clock { return as.clock }

// PageSize returns the page granularity in bytes.
func (as *AddressSpace) PageSize() int { return as.pageSize }

// Counters returns a snapshot of the access and ECC counters.
func (as *AddressSpace) Counters() Counters { return as.counters }

// AddAccessObserver registers an observer for application accesses.
func (as *AddressSpace) AddAccessObserver(o AccessObserver) {
	as.accessObs = append(as.accessObs, o)
}

// AddECCObserver registers an observer for detection/correction events.
func (as *AddressSpace) AddECCObserver(o ECCObserver) {
	as.eccObs = append(as.eccObs, o)
}

// Regions returns the mapped regions in layout order. The returned slice
// must not be modified.
func (as *AddressSpace) Regions() []*Region { return as.regions }

// RegionByKind returns the first region of the given kind, or nil.
func (as *AddressSpace) RegionByKind(k RegionKind) *Region {
	for _, r := range as.regions {
		if r.kind == k {
			return r
		}
	}
	return nil
}

// RegionByName returns the named region, or nil.
func (as *AddressSpace) RegionByName(name string) *Region {
	for _, r := range as.regions {
		if r.name == name {
			return r
		}
	}
	return nil
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
		pages:    make([]*page, npages),
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
		p := &page{data: make([]byte, as.pageSize)}
		if checkPerPage > 0 {
			p.check = make([]byte, checkPerPage)
		}
		r.pages[i] = p
	}
	if spec.Backed {
		r.backing = make([]byte, size)
	}
	as.regions = append(as.regions, r)
	return r, nil
}

// page is one physical page frame of a region.
type page struct {
	data  []byte
	check []byte // nil when the region is unprotected
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
	// anyTaint is the page-level summary: true iff any bit is set, so
	// the all-clean fast test stays one flag load per page.
	taint    []uint64
	anyTaint bool
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
	pages    []*page
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

// CorrectedOnPage returns the number of corrected-error events observed on
// page i since its frame was last replaced. Page-retirement policies use
// this as their threshold input.
func (r *Region) CorrectedOnPage(i int) uint64 { return r.pages[i].corrected }

// Replacements returns how many times page i's frame has been replaced.
func (r *Region) Replacements(i int) int { return r.pages[i].replaced }

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
	p := r.pages[pi]
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
	p := r.pages[pi]
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
	p := r.pages[pi]
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
	p := r.pages[pi]
	if !p.anyTaint {
		return
	}
	r.markDirty(pi)
	clear(p.taint)
	p.anyTaint = false
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

// verifyWordClean reports whether granule wi of page pi provably
// satisfies the taint invariant: no stuck-at state over its bytes, and
// (in protected regions) the codeword decodes VerdictClean. It decodes
// into scratch copies so a correctable pattern is not corrected as a
// side effect. Equivalence tests use it to audit the bitmap against
// ground truth; the access paths trust the bitmap instead of paying
// for verification.
func (r *Region) verifyWordClean(pi, wi int) bool {
	p := r.pages[pi]
	g := r.granule
	if p.stuckInRange(wi*g, (wi+1)*g) {
		return false
	}
	if r.codec == nil {
		return true
	}
	as := r.as
	c := r.codec.CheckBytes()
	word, check, owned := as.acquireScratch(g, c)
	defer as.releaseScratch(owned)
	copy(word, p.data[wi*g:(wi+1)*g])
	copy(check, p.check[wi*c:(wi+1)*c])
	return r.codec.Decode(word, check) == VerdictClean
}

// acquireScratch hands out the address space's reusable word/check
// buffers, or fresh allocations when a frame up the stack already holds
// them (an MC handler or observer re-entered the memory path). Callers
// must pair it with releaseScratch(owned).
func (as *AddressSpace) acquireScratch(w, c int) (word, check []byte, owned bool) {
	if as.scratchBusy {
		return make([]byte, w), make([]byte, c), false
	}
	if cap(as.scratchWord) < w {
		as.scratchWord = make([]byte, w)
	}
	if cap(as.scratchCheck) < c {
		as.scratchCheck = make([]byte, c)
	}
	as.scratchBusy = true
	return as.scratchWord[:w], as.scratchCheck[:c], true
}

// releaseScratch returns the scratch buffers acquired with owned=true.
func (as *AddressSpace) releaseScratch(owned bool) {
	if owned {
		as.scratchBusy = false
	}
}

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

// findRegion locates the region containing addr through the default
// accessor's one-entry cache (see Accessor in accessor.go).
func (as *AddressSpace) findRegion(addr Addr) *Region {
	return as.acc.findRegion(addr)
}

// locate resolves an access of n bytes at addr through the default
// accessor.
func (as *AddressSpace) locate(addr Addr, n int) (*Region, error) {
	return as.acc.locate(addr, n)
}

// Load reads len(buf) bytes at addr through the full memory path (via
// the default accessor): stuck-at faults are sensed, protected regions
// decode every covered codeword (possibly correcting, possibly raising
// a machine check), and access observers are notified.
func (as *AddressSpace) Load(addr Addr, buf []byte) error {
	return as.acc.Load(addr, buf)
}

// senseInto copies len(buf) bytes starting at region offset off into
// buf, applying stuck-at masks. On the fast path every untainted
// granule (which by the invariant carries no stuck-at state) is a bulk
// copy of the stored bytes; only tainted granules sense per byte. It
// reports true when the whole span was served by bulk copies.
func (r *Region) senseInto(buf []byte, off int) bool {
	if len(buf) == 0 {
		return true
	}
	as := r.as
	ps := as.pageSize
	if !as.fastPath {
		for i := range buf {
			o := off + i
			buf[i] = r.pages[o/ps].senseByte(o % ps)
		}
		return false
	}
	// Single-page untainted span: the overwhelmingly common case. One
	// summary-bit probe, one copy, shift-based arithmetic throughout.
	if pi := off >> as.pageShift; off+len(buf) <= (pi+1)<<as.pageShift && !r.pages[pi].anyTaint {
		copy(buf, r.pages[pi].data[off&(ps-1):off&(ps-1)+len(buf)])
		as.fastWords += r.spanWords(off, len(buf))
		return true
	}
	g := r.granule
	if r.cleanPages(off/ps, (off+len(buf)-1)/ps) {
		r.copyStored(buf, off)
		as.fastWords += r.spanWords(off, len(buf))
		return true
	}
	allClean := true
	for n := 0; n < len(buf); {
		o := off + n
		p := r.pages[o/ps]
		inPage := o % ps
		wi := inPage / g
		take := (wi+1)*g - inPage // to the end of this granule
		if take > len(buf)-n {
			take = len(buf) - n
		}
		if !p.wordTainted(wi) {
			copy(buf[n:n+take], p.data[inPage:inPage+take])
			as.fastWords++
		} else {
			allClean = false
			for i := 0; i < take; i++ {
				buf[n+i] = p.senseByte(inPage + i)
			}
		}
		n += take
	}
	return allClean
}

// loadDecoded performs a protected load of len(buf) bytes at region offset
// off. On the fast path untainted codewords skip the decode entirely —
// the taint invariant guarantees each would decode VerdictClean and come
// back unmodified, so their bytes are bulk-copied from storage (with no
// counters, events, or scrubbing side effects, exactly as the full path
// would behave on them); only tainted codewords go through sensing and
// decode. It reports true when every covered word was served clean.
func (as *AddressSpace) loadDecoded(r *Region, off int, buf []byte) (bool, error) {
	w := r.granule
	c := r.checkBytes
	ps := as.pageSize
	// Single-page untainted span: the overwhelmingly common case. One
	// summary-bit probe, one copy, shift-based arithmetic throughout.
	// Codewords never straddle pages, so the page holding the requested
	// bytes also holds the word-aligned expansion of the span.
	if as.fastPath && len(buf) > 0 {
		if pi := off >> as.pageShift; off+len(buf) <= (pi+1)<<as.pageShift && !r.pages[pi].anyTaint {
			copy(buf, r.pages[pi].data[off&(ps-1):off&(ps-1)+len(buf)])
			as.fastWords += r.spanWords(off, len(buf))
			return true, nil
		}
	}
	first := off / w * w
	last := (off + len(buf) + w - 1) / w * w
	if first == last {
		return true, nil
	}
	if as.fastPath && r.cleanPages(first/ps, (last-1)/ps) {
		r.copyStored(buf, off)
		as.fastWords += uint64((last - first) / w)
		return true, nil
	}
	word, check, owned := as.acquireScratch(w, c)
	defer as.releaseScratch(owned)
	allClean := as.fastPath
	for wo := first; wo < last; wo += w {
		p := r.pages[wo/ps]
		inPage := wo % ps
		wordIdx := inPage / w
		if as.fastPath && !p.wordTainted(wordIdx) {
			// Clean codeword on a partially-tainted span: copy the
			// stored bytes that overlap the request.
			as.fastWords++
			lo, hi := wo, wo+w
			if lo < off {
				lo = off
			}
			if hi > off+len(buf) {
				hi = off + len(buf)
			}
			copy(buf[lo-off:hi-off], p.data[inPage+lo-wo:inPage+hi-wo])
			continue
		}
		allClean = false
		// Sense the stored word and its check bytes.
		for i := 0; i < w; i++ {
			word[i] = p.senseByte(inPage + i)
		}
		copy(check, p.check[wordIdx*c:(wordIdx+1)*c])

		verdict := r.codec.Decode(word, check)
		if verdict == VerdictUncorrectable {
			v, err := as.handleUncorrectable(r, wo, word, check)
			if err != nil {
				return false, err
			}
			verdict = v
		}
		if verdict == VerdictCorrected {
			as.counters.Corrected++
			r.markDirty(wo / ps)
			p.corrected++
			as.notifyECC(ECCEvent{Kind: ECCCorrected, Addr: r.base + Addr(wo), Time: as.clock.Now(), Region: r})
			if as.scrubOnCorrect {
				copy(p.data[inPage:inPage+w], word)
				copy(p.check[wordIdx*c:(wordIdx+1)*c], check)
			}
		}
		// Copy the decoded bytes that overlap the request.
		for i := 0; i < w; i++ {
			o := wo + i
			if o >= off && o < off+len(buf) {
				buf[o-off] = word[i]
			}
		}
	}
	return allClean, nil
}

// handleUncorrectable runs the software response for an uncorrectable
// error at region word offset wo. On successful recovery it re-senses and
// re-decodes the word into word/check and returns the new verdict;
// otherwise it returns a machine-check fault.
func (as *AddressSpace) handleUncorrectable(r *Region, wo int, word, check []byte) (Verdict, error) {
	as.counters.Uncorrectable++
	addr := r.base + Addr(wo)
	as.notifyECC(ECCEvent{Kind: ECCUncorrectable, Addr: addr, Time: as.clock.Now(), Region: r})
	if r.mc == nil || r.mc.HandleMC(as, MCEvent{Addr: addr, Region: r}) != MCRecovered {
		return VerdictUncorrectable, &Fault{Kind: FaultMachineCheck, Addr: addr}
	}
	// The handler claims to have repaired storage; retry once.
	w := r.codec.WordBytes()
	c := r.codec.CheckBytes()
	p := r.pages[wo/as.pageSize]
	inPage := wo % as.pageSize
	wordIdx := inPage / w
	for i := 0; i < w; i++ {
		word[i] = p.senseByte(inPage + i)
	}
	copy(check, p.check[wordIdx*c:(wordIdx+1)*c])
	v := r.codec.Decode(word, check)
	if v == VerdictUncorrectable {
		return v, &Fault{Kind: FaultMachineCheck, Addr: addr}
	}
	as.counters.Recovered++
	as.notifyECC(ECCEvent{Kind: ECCRecovered, Addr: addr, Time: as.clock.Now(), Region: r})
	return v, nil
}

// Store writes data at addr through the full memory path (via the
// default accessor). Stores to read-only regions fault. In protected
// regions, partial codewords are read-modify-written: the untouched
// bytes are decoded first (which can itself raise a machine check),
// then the whole word is re-encoded.
func (as *AddressSpace) Store(addr Addr, data []byte) error {
	return as.acc.Store(addr, data)
}

// writeBytes writes raw bytes at region offset off (no encoding).
func (r *Region) writeBytes(off int, data []byte) {
	ps := r.as.pageSize
	for len(data) > 0 {
		pi := off / ps
		r.markDirty(pi)
		p := r.pages[pi]
		inPage := off % ps
		n := copy(p.data[inPage:], data)
		data = data[n:]
		off += n
	}
}

// storeEncoded writes data at region offset off in a protected region,
// re-encoding every touched codeword.
func (as *AddressSpace) storeEncoded(r *Region, off int, data []byte) error {
	w := r.granule
	c := r.checkBytes
	ps := as.pageSize
	// Word-aligned single-page store: every touched codeword is fully
	// overwritten, so no read-modify-write decode happens on any path —
	// write the caller's bytes into storage and re-encode each codeword
	// in place, skipping the scratch buffers and the byte-merge loop.
	if off%w == 0 && len(data)%w == 0 && len(data) > 0 {
		if pi := off >> as.pageShift; off+len(data) <= (pi+1)<<as.pageShift {
			p := r.pages[pi]
			r.markDirty(pi)
			inPage := off & (ps - 1)
			for k, wi := 0, inPage/w; k < len(data); k, wi = k+w, wi+1 {
				d := p.data[inPage+k : inPage+k+w]
				copy(d, data[k:k+w])
				r.codec.Encode(d, p.check[wi*c:wi*c+c])
				// Overwritten words rejoin the taint invariant immediately
				// unless stuck-at state covers them (masking-by-overwrite,
				// identical to the general path below).
				if p.anyTaint && !p.stuckInRange(inPage+k, inPage+k+w) {
					r.clearWordTaint(pi, wi)
				}
			}
			return nil
		}
	}
	first := off / w * w
	last := (off + len(data) + w - 1) / w * w
	word, check, owned := as.acquireScratch(w, c)
	defer as.releaseScratch(owned)
	for wo := first; wo < last; wo += w {
		pi := wo / ps
		r.markDirty(pi)
		p := r.pages[pi]
		inPage := wo % ps
		wordIdx := inPage / w
		partial := wo < off || wo+w > off+len(data)
		if partial {
			if as.fastPath && !p.wordTainted(wordIdx) {
				// The taint invariant says this word would sense as its
				// stored bytes and decode VerdictClean unchanged, so the
				// read-modify-write decode is a no-op: take the stored
				// bytes directly.
				copy(word, p.data[inPage:inPage+w])
			} else {
				// Read-modify-write: decode the existing word so latent
				// errors in the untouched bytes are handled, not laundered
				// into a fresh valid codeword.
				for i := 0; i < w; i++ {
					word[i] = p.senseByte(inPage + i)
				}
				copy(check, p.check[wordIdx*c:(wordIdx+1)*c])
				verdict := r.codec.Decode(word, check)
				if verdict == VerdictUncorrectable {
					v, err := as.handleUncorrectable(r, wo, word, check)
					if err != nil {
						return err
					}
					verdict = v
				}
				if verdict == VerdictCorrected {
					as.counters.Corrected++
					p.corrected++
					as.notifyECC(ECCEvent{Kind: ECCCorrected, Addr: r.base + Addr(wo), Time: as.clock.Now(), Region: r})
				}
			}
		}
		// Merge the new bytes.
		for i := 0; i < w; i++ {
			o := wo + i
			if o >= off && o < off+len(data) {
				word[i] = data[o-off]
			}
		}
		r.codec.Encode(word, check)
		copy(p.data[inPage:inPage+w], word)
		copy(p.check[wordIdx*c:(wordIdx+1)*c], check)
		// The word just went through a full re-encode of decoded (or
		// provably clean) data, so it satisfies the taint invariant again
		// unless stuck-at state covers it — the paper's masking-by-
		// overwrite, applied to the fast path: overwritten words rejoin
		// it immediately. (Identical on both paths: taint transitions
		// never depend on fastPath.)
		if p.anyTaint && !p.stuckInRange(inPage, inPage+w) {
			r.clearWordTaint(pi, wordIdx)
		}
	}
	return nil
}

// notifyAccess fans an access event out to the observers.
func (as *AddressSpace) notifyAccess(ev AccessEvent) {
	for _, o := range as.accessObs {
		o.ObserveAccess(ev)
	}
}

// notifyECC fans an ECC event out to the observers.
func (as *AddressSpace) notifyECC(ev ECCEvent) {
	for _, o := range as.eccObs {
		o.ObserveECC(ev)
	}
}

// Typed accessors. All use little-endian byte order.

// LoadU64 loads a 64-bit value.
func (as *AddressSpace) LoadU64(addr Addr) (uint64, error) {
	var b [8]byte
	if err := as.Load(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// StoreU64 stores a 64-bit value.
func (as *AddressSpace) StoreU64(addr Addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.Store(addr, b[:])
}

// LoadU32 loads a 32-bit value.
func (as *AddressSpace) LoadU32(addr Addr) (uint32, error) {
	var b [4]byte
	if err := as.Load(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// StoreU32 stores a 32-bit value.
func (as *AddressSpace) StoreU32(addr Addr, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return as.Store(addr, b[:])
}

// LoadU8 loads one byte.
func (as *AddressSpace) LoadU8(addr Addr) (byte, error) {
	var b [1]byte
	if err := as.Load(addr, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// StoreU8 stores one byte.
func (as *AddressSpace) StoreU8(addr Addr, v byte) error {
	b := [1]byte{v}
	return as.Store(addr, b[:])
}

// LoadF64 loads a float64.
func (as *AddressSpace) LoadF64(addr Addr) (float64, error) {
	u, err := as.LoadU64(addr)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(u), nil
}

// StoreF64 stores a float64.
func (as *AddressSpace) StoreF64(addr Addr, v float64) error {
	return as.StoreU64(addr, math.Float64bits(v))
}

// Raw access (simulator plumbing: setup, recovery, ground-truth checks).

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

// WriteRaw writes bytes at addr bypassing the read-only flag and access
// observers, re-encoding check storage so protected regions stay
// consistent. Region initialization (loading an index into a read-only
// cache) and software recovery use it.
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
	// Widen to whole codewords so re-encoding is well defined; the
	// untouched bytes keep their stored (possibly erroneous) values.
	// Every touched word goes back through a full Encode, so afterwards
	// it provably satisfies the taint invariant — decodes clean — unless
	// stuck-at state covers it, and its taint bit is cleared
	// accordingly. Untouched words keep whatever errors (and taint
	// bits) they had. A future raw write path that skips the re-encode
	// must taint the covered words instead.
	w := r.codec.WordBytes()
	c := r.codec.CheckBytes()
	first := off / w * w
	last := (off + len(data) + w - 1) / w * w
	ps := as.pageSize
	// The shared word scratch doubles as the widening buffer.
	wide, check, owned := as.acquireScratch(last-first, c)
	defer as.releaseScratch(owned)
	r.copyStored(wide, first)
	copy(wide[off-first:], data)
	for wo := first; wo < last; wo += w {
		word := wide[wo-first : wo-first+w]
		r.codec.Encode(word, check)
		pi := wo / ps
		r.markDirty(pi)
		p := r.pages[pi]
		inPage := wo % ps
		wordIdx := inPage / w
		copy(p.data[inPage:inPage+w], word)
		copy(p.check[wordIdx*c:(wordIdx+1)*c], check)
		if p.anyTaint && !p.stuckInRange(inPage, inPage+w) {
			r.clearWordTaint(pi, wordIdx)
		}
	}
	return nil
}

// Error injection (the Algorithm 1(a) primitive).

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
	p := r.pages[pi]
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
	p := r.pages[pageIdx]
	p.stuckSet = nil
	p.stuckClr = nil
	p.corrected = 0
	p.replaced++
	ps := r.as.pageSize
	if r.backing != nil {
		copy(p.data, r.backing[pageIdx*ps:(pageIdx+1)*ps])
	} else {
		for i := range p.data {
			p.data[i] = 0
		}
	}
	if r.codec != nil {
		w := r.codec.WordBytes()
		c := r.codec.CheckBytes()
		check, _, owned := r.as.acquireScratch(c, 0)
		defer r.as.releaseScratch(owned)
		for wo := 0; wo < ps; wo += w {
			r.codec.Encode(p.data[wo:wo+w], check)
			copy(p.check[wo/w*c:(wo/w+1)*c], check)
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
		p := r.pages[i]
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
	p := r.pages[i]
	w := r.codec.WordBytes()
	c := r.codec.CheckBytes()
	ps := r.as.pageSize
	word, check, owned := r.as.acquireScratch(w, c)
	defer r.as.releaseScratch(owned)
	for wo := 0; wo < ps; wo += w {
		for k := 0; k < w; k++ {
			word[k] = p.senseByte(wo + k)
		}
		wordIdx := wo / w
		copy(check, p.check[wordIdx*c:(wordIdx+1)*c])
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
