// Package monitor implements the paper's memory access monitoring
// framework (Section IV-B) as one record of a fault-free window: for every
// sensing granule of every region, how the window first referenced it and
// its safe and unsafe durations (Section III-B, Fig. 5b); per page, its
// write count, the input to the implicit/explicit data recoverability
// classification of Section III-C (Table 5). core.Prepare makes the record
// on a build's one fault-free pass (New, the window, Finish), and every
// reader shares it: the campaign engine decides trials from it without
// simulating them (DESIGN.md §9), and Fig. 5b, Table 5 and `hrmsim
// profile` read their safe ratios and recoverability from it. Sample draws
// the Fig. 5b addresses on a session at the start of that window.
//
// Where the paper attaches x86 debug-register watchpoints to sampled
// addresses through a debugger, this package observes every access of a
// simulated address space exactly, on its virtual clock; sampling only
// chooses which bytes a figure reports.
package monitor

import (
	"fmt"
	"math/rand"
	"time"

	"hrmsim/internal/simmem"
)

// ExplicitThreshold is the write-interval above which data counts as
// explicitly recoverable: the paper classifies memory written to less than
// once every five minutes as cheap to checkpoint.
const ExplicitThreshold = 5 * time.Minute

// Touch is how the window first referenced one granule.
type Touch uint8

const (
	// TouchNever: no load or store overlapped the granule.
	TouchNever Touch = iota
	// TouchOverwrite: the first overlapping access was a store covering
	// all of it.
	TouchOverwrite
	// TouchSensed: anything else — a load, or a store of part of a
	// codeword (which reads the rest back through the decoder).
	TouchSensed
)

// cell is the record of one sensing granule.
type cell struct {
	first Touch
	// last is the time of the previous reference; safe and unsafe sum the
	// intervals since it that ended in a store and in a load.
	last, safe, unsafe time.Duration
}

// regionRecord is one region's share of a Profile. It is keyed by base
// address, not by *simmem.Region: a Reset may swap the instance (the
// build-per-trial lifecycle does), and every build lays regions out alike.
type regionRecord struct {
	base   simmem.Addr
	name   string
	kind   simmem.RegionKind
	backed bool
	// granule is the unit a fault is sensed in: the codeword in a
	// protected region (a decode covers all of it), one byte otherwise.
	// It is not simmem's 64-byte taint granule, which only selects the
	// access path: bytes next to a flipped or stuck one sense as stored.
	granule int
	// cells cover the bytes in use when the record was made, which is all
	// that address sampling draws from.
	cells []cell
	// pageWrites covers every page of the region: Table 5 classifies the
	// pages in use after the window, which may be more.
	pageWrites []uint64
	// used is the bytes in use at the end of the window (Finish).
	used int
}

// Profile is the record of one fault-free window of an address space:
// New starts it, simmem.AddressSpace.AddAccessObserver registers it for
// the window, and Finish ends it.
type Profile struct {
	regions  []regionRecord
	pageSize int
	// Accesses counts the events observed.
	Accesses uint64
	// Start and End are the virtual clock at both ends of the window. New
	// sets Start and Finish sets End.
	Start, End time.Duration
}

var _ simmem.AccessObserver = (*Profile)(nil)

// New returns an all-never record of as in its current state, ready to
// observe it. The window starts at the clock's current time.
func New(as *simmem.AddressSpace) *Profile {
	p := &Profile{pageSize: as.PageSize(), Start: as.Clock().Now()}
	for _, r := range as.Regions() {
		rr := regionRecord{base: r.Base(), name: r.Name(), kind: r.Kind(), backed: r.Backed(), granule: 1}
		if c := r.Codec(); c != nil {
			rr.granule = c.WordBytes()
		}
		rr.cells = make([]cell, (r.Used()+rr.granule-1)/rr.granule)
		rr.pageWrites = make([]uint64, r.PageCount())
		p.regions = append(p.regions, rr)
	}
	return p
}

// Finish ends the window at the clock's current time and records the
// bytes each region of the record has in use at that moment.
func (p *Profile) Finish(as *simmem.AddressSpace) {
	p.End = as.Clock().Now()
	for _, r := range as.Regions() {
		if rr := p.region(r.Base()); rr != nil {
			rr.used = r.Used()
		}
	}
}

// region returns the record of the region at base, or nil.
func (p *Profile) region(base simmem.Addr) *regionRecord {
	for i := range p.regions {
		if p.regions[i].base == base {
			return &p.regions[i]
		}
	}
	return nil
}

// ObserveAccess implements simmem.AccessObserver.
func (p *Profile) ObserveAccess(ev simmem.AccessEvent) {
	p.Accesses++
	if rr := p.region(ev.Region.Base()); rr != nil {
		rr.observe(ev, p.pageSize)
	}
}

// observe folds one access into the region's granules and page counters,
// attributing the interval since each granule's previous reference per
// the Section III-B definitions.
func (rr *regionRecord) observe(ev simmem.AccessEvent, pageSize int) {
	store := ev.Kind == simmem.Store
	g := rr.granule
	off := int(ev.Addr - rr.base)
	end := off + ev.Len
	for gi := off / g; gi < len(rr.cells) && gi*g < end; gi++ {
		c := &rr.cells[gi]
		switch {
		case c.first == TouchNever && store && gi*g >= off && (gi+1)*g <= end:
			c.first = TouchOverwrite
		case c.first == TouchNever:
			c.first = TouchSensed
		case ev.Time <= c.last:
		case store:
			c.safe += ev.Time - c.last
		default:
			c.unsafe += ev.Time - c.last
		}
		c.last = ev.Time
	}
	if store {
		for pg := off / pageSize; pg <= (end-1)/pageSize; pg++ {
			rr.pageWrites[pg]++
		}
	}
}

// Granule is the record of the sensing granule holding one address.
type Granule struct {
	Region string
	Kind   simmem.RegionKind
	// First is how the window first referenced the granule.
	First Touch
	// Safe sums the intervals between consecutive references that ended
	// in a store — an error in them is overwritten — and Unsafe those
	// that ended in a load.
	Safe, Unsafe time.Duration
}

// SafeRatio returns Safe/(Safe+Unsafe), and false when no interval was
// attributed (fewer than two references at distinct times).
func (g Granule) SafeRatio() (float64, bool) {
	total := g.Safe + g.Unsafe
	if total <= 0 {
		return 0, false
	}
	return float64(g.Safe) / float64(total), true
}

// At returns the record of the granule holding addr, and false when addr
// lies outside the bytes its region used when the record was made.
func (p *Profile) At(addr simmem.Addr) (Granule, bool) {
	for i := range p.regions {
		rr := &p.regions[i]
		if addr < rr.base {
			continue
		}
		gi := int(addr-rr.base) / rr.granule
		if gi >= len(rr.cells) {
			continue
		}
		c := rr.cells[gi]
		return Granule{Region: rr.name, Kind: rr.kind, First: c.first, Safe: c.safe, Unsafe: c.unsafe}, true
	}
	return Granule{}, false
}

// SafeRatios returns the safe ratios of the sampled addresses in the given
// region kind that accumulated at least one attributed interval, in sample
// order — the raw data behind one violin of Fig. 5b. It is empty, never
// nil, when there are none.
func (p *Profile) SafeRatios(sample []simmem.Addr, kind simmem.RegionKind) []float64 {
	out := []float64{}
	for _, addr := range sample {
		g, ok := p.At(addr)
		if !ok || g.Kind != kind {
			continue
		}
		if x, ok := g.SafeRatio(); ok {
			out = append(out, x)
		}
	}
	return out
}

// Window returns the length of the observation window.
func (p *Profile) Window() time.Duration { return p.End - p.Start }

// Region is one region of the record as the window left it.
type Region struct {
	Base simmem.Addr
	Name string
	Kind simmem.RegionKind
	// Used is the bytes in use at the end of the window.
	Used int
}

// Regions returns the record's regions in address-space order.
func (p *Profile) Regions() []Region {
	out := make([]Region, len(p.regions))
	for i, rr := range p.regions {
		out[i] = Region{Base: rr.base, Name: rr.name, Kind: rr.kind, Used: rr.used}
	}
	return out
}

// Recoverability is the Table 5 classification for one region: the
// fraction of its used pages recoverable by each strategy. A page may be
// both, so the fractions can sum to more than 1.
type Recoverability struct {
	// Implicit: a clean copy already exists in persistent storage and
	// the page was never dirtied (read-only file-backed data).
	Implicit float64
	// Explicit: the page is written rarely enough (at most once per
	// ExplicitThreshold on average) that mirroring writes to persistent
	// storage is cheap.
	Explicit float64
	// Pages is the number of used pages considered.
	Pages int
}

// RecoverabilityOf classifies the pages the region at base had in use at
// the end of the window, over the window [Start, End).
func (p *Profile) RecoverabilityOf(base simmem.Addr) (Recoverability, error) {
	rr := p.region(base)
	if rr == nil {
		return Recoverability{}, fmt.Errorf("monitor: no region at %#x in the record", uint64(base))
	}
	usedPages := (rr.used + p.pageSize - 1) / p.pageSize
	if usedPages == 0 {
		return Recoverability{}, nil
	}
	span := p.Window()
	var implicit, explicit int
	for _, w := range rr.pageWrites[:usedPages] {
		// A read-only page is never written: simmem faults a store to it
		// before any observer sees one.
		isImplicit := rr.backed && w == 0
		// Average write interval over the window; zero writes means
		// an unbounded interval.
		isExplicit := w == 0 || time.Duration(float64(span)/float64(w)) >= ExplicitThreshold
		if isImplicit {
			implicit++
		}
		if isExplicit {
			explicit++
		}
	}
	n := float64(usedPages)
	return Recoverability{
		Implicit: float64(implicit) / n,
		Explicit: float64(explicit) / n,
		Pages:    usedPages,
	}, nil
}

// Sample draws up to watchpoints distinct addresses as the paper's Fig.
// 5b does: per region, a share proportional to its used bytes with a
// floor of watchpoints/8 so a tiny region still yields a distribution,
// each drawn uniformly from the used bytes of that region's kind. A
// region's draws stop after 20n+100 attempts, so a share larger than the
// bytes it can land on ends short.
func Sample(as *simmem.AddressSpace, rng *rand.Rand, watchpoints int) []simmem.Addr {
	total := 0
	for _, r := range as.Regions() {
		total += r.Used()
	}
	if total == 0 {
		return nil
	}
	var out []simmem.Addr
	drawn := make(map[simmem.Addr]bool)
	for _, r := range as.Regions() {
		kind := r.Kind()
		filter := func(rr *simmem.Region) bool { return rr.Kind() == kind }
		n := watchpoints * r.Used() / total
		if floor := watchpoints / 8; n < floor {
			n = floor
		}
		for got, attempts := 0, 0; got < n && attempts < 20*n+100; attempts++ {
			addr, ok := as.SampleAddr(rng, filter)
			if !ok {
				break
			}
			if drawn[addr] {
				continue
			}
			drawn[addr] = true
			out = append(out, addr)
			got++
		}
	}
	return out
}
