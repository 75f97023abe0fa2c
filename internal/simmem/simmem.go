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
//
// File map, one layer per file:
//
//	simmem.go    AddressSpace: construction, counters, observers, scratch
//	region.go    Region: Table 2 kinds, mapping, geometry, lookup, sampling
//	page.go      page frames, stuck-at sensing, the per-granule taint bitmap
//	accessor.go  the one access front end: Load/Store + typed helpers
//	load.go      the one span loader and the sense/decode codeword primitive
//	store.go     byte writes, the encoded read-modify-write, raw writes
//	inject.go    soft and hard error injection (Algorithm 1(a))
//	repair.go    frame replacement, backing-store restore, scrubbing
//	snapshot.go  capture/restore over dirty-page tracking
//	alloc.go, codec.go, events.go, fault.go, clock.go, gate.go: the
//	allocator, the Codec/MCHandler hooks, observer events, fault values,
//	the virtual clock, and the shared-server exclusion gate.
package simmem

import (
	"fmt"
	"math/bits"
	"sync"
)

// Addr is a simulated virtual address.
type Addr uint64

// Config configures an AddressSpace.
type Config struct {
	// PageSize is the memory page granularity in bytes (used for page
	// retirement and checkpoint flushing). Defaults to 4096. Must be a
	// power of two and a multiple of every region codec's word size.
	PageSize int
	// Clock is the virtual time source. A new zero clock is created if
	// nil.
	Clock *Clock
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
	// accessor is the default access front end: the space's own Load,
	// Store and typed helpers are its promoted methods. Additional
	// independent accessors come from NewAccessor.
	accessor

	pageSize  int
	pageShift int // log2(pageSize); page size is a validated power of two
	clock     *Clock
	regions   []*Region
	accessObs []AccessObserver
	eccObs    []ECCObserver
	counters  Counters
	snap      *Snapshot // active capture (snapshot.go), nil until Snapshot
	// fastPath gates the clean-word fast path (on unless SetFastPath
	// turned it off); fastLoads counts the Load calls it served without
	// decoding a word or sensing a byte, and fastWords counts the
	// individual granules bulk-copied that way (partially-fast loads
	// advance fastWords but not fastLoads). Both counters are monotonic
	// across snapshot restores: they are observability, not simulated
	// state.
	fastPath  bool
	fastLoads uint64
	fastWords uint64
	// Reusable scratch for the word/check buffers of the decode/encode
	// paths, sized by AddRegion. scratchBusy guards against
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
		pageSize:  cfg.PageSize,
		pageShift: bits.TrailingZeros(uint(cfg.PageSize)),
		clock:     cfg.Clock,
		fastPath:  true,
	}
	as.accessor.as = as
	return as, nil
}

// SetFastPath enables or disables the clean-word fast path and returns
// the previous setting. Off forces every access through per-byte sensing
// and per-word decoding: the reference path. Both settings produce
// bit-identical data, counters, events, and faults (the taint invariant
// in DESIGN.md); differential tests flip this, on spaces they build and
// on spaces an application built, to compare the two.
func (as *AddressSpace) SetFastPath(on bool) bool {
	prev := as.fastPath
	as.fastPath = on
	return prev
}

// FastPathLoads returns the number of Load calls served entirely from
// untainted granules — bulk copies with no per-byte sensing and no
// codeword decoding. The counter is monotonic: snapshot restores do not
// roll it back.
func (as *AddressSpace) FastPathLoads() uint64 { return as.fastLoads }

// FastPathWords returns the number of individual granules (codewords in
// protected regions) the fast path served as bulk copies, including the
// clean granules of partially-tainted loads. Monotonic, like
// FastPathLoads.
func (as *AddressSpace) FastPathWords() uint64 { return as.fastWords }

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

// RemoveAccessObserver unregisters the last registration of o, which
// must be comparable (observers are pointers); the others keep their
// order. It is safe inside an ObserveAccess call: removal never writes to
// the list a delivery is iterating (it reslices, or copies when o is not
// last), so the event in flight still reaches every observer registered
// when it started. An observer the active snapshot retains must not be
// removed: Restore truncates the list to that retained prefix.
func (as *AddressSpace) RemoveAccessObserver(o AccessObserver) {
	obs := as.accessObs
	for i := len(obs) - 1; i >= 0; i-- {
		if obs[i] != o {
			continue
		}
		if i == len(obs)-1 {
			as.accessObs = obs[:i]
		} else {
			as.accessObs = append(append(make([]AccessObserver, 0, len(obs)-1), obs[:i]...), obs[i+1:]...)
		}
		return
	}
}

// AddECCObserver registers an observer for detection/correction events.
func (as *AddressSpace) AddECCObserver(o ECCObserver) {
	as.eccObs = append(as.eccObs, o)
}

// Observed reports whether any access or ECC observer is registered.
// Right after a Snapshot.Restore only the observers the capture retained
// are.
func (as *AddressSpace) Observed() bool { return len(as.accessObs)+len(as.eccObs) > 0 }

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

// acquireScratch hands out the address space's reusable word/check
// buffers, or fresh allocations when a frame up the stack already holds
// them (an MC handler or observer re-entered the memory path). Callers
// must pair it with releaseScratch(owned).
func (as *AddressSpace) acquireScratch(w, c int) (word, check []byte, owned bool) {
	if as.scratchBusy {
		return make([]byte, w), make([]byte, c), false
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

// notifyAccess fans an access event out to the observers. The front end
// calls it only when there are any, so an unobserved access never builds
// the event.
func (as *AddressSpace) notifyAccess(kind AccessKind, r *Region, addr Addr, n int) {
	ev := AccessEvent{Addr: addr, Len: n, Kind: kind, Time: as.clock.Now(), Region: r}
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
