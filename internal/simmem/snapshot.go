// Snapshot/restore: capture an address space's pristine state once and
// roll trials back to it, instead of rebuilding the application per
// trial. The campaign engine (internal/core) snapshots each worker's
// instance after build (and warmup) and restores before every injection;
// because a trial dirties only a handful of pages, Restore touches only
// the dirty set and is orders of magnitude cheaper than a rebuild.
//
// Correctness contract: a restored address space must be
// indistinguishable — bit for bit, on every subsequent Load/Store/inject
// path — from one freshly built into the captured state. That covers
// page data and check storage, stuck-at masks, per-frame corrected /
// replaced counters and taint bitmaps (taint selects between the fast
// and slow access paths, which are bit-identical, but the bitmap still
// rolls back so per-word state never drifts from the data under it),
// backing stores, allocator high-water marks, the virtual clock, the
// aggregate counters, and the observer registration lists.

package simmem

import (
	"fmt"
	"time"
)

// TrialResetter is implemented by observers and MC handlers that carry
// host-side per-trial state (recovery counters, seen-word sets,
// checkpoint timestamps). Snapshot.Restore invokes it on every retained
// access observer, ECC observer, and region MC handler so software
// responses start each trial as fresh as the memory under them.
type TrialResetter interface {
	// ResetTrial discards state accumulated since the snapshot was
	// taken.
	ResetTrial()
}

// pageState is the captured per-frame state beyond the data/check bytes.
type pageState struct {
	stuckSet  []byte // copy; nil when the frame had no stuck-at faults
	stuckClr  []byte
	corrected uint64
	replaced  int
	taint     []uint64 // copy; nil when no granule was tainted at capture
	anyTaint  bool
}

// regionState is one region's captured state.
type regionState struct {
	used    int
	data    []byte // page data, flattened in page order
	check   []byte // check storage, flattened (nil when unprotected)
	backing []byte // backing-store copy (nil when not backed)
	pages   []pageState
}

// Snapshot is a captured address-space state. Taking a snapshot arms
// dirty-page tracking on every mutation path; Restore rolls only the
// dirtied pages back. One snapshot is active per address space at a
// time — taking a new one supersedes the old, whose Restore then fails.
type Snapshot struct {
	as       *AddressSpace
	clock    time.Duration
	counters Counters
	nAccess  int // observer-list lengths at capture; Restore truncates
	nECC     int
	regions  []regionState
}

// Snapshot captures the address space's complete state and arms
// dirty-page tracking for a later Restore.
func (as *AddressSpace) Snapshot() *Snapshot {
	s := &Snapshot{
		as:       as,
		clock:    as.clock.now,
		counters: as.counters,
		nAccess:  len(as.accessObs),
		nECC:     len(as.eccObs),
		regions:  make([]regionState, len(as.regions)),
	}
	ps := as.pageSize
	for ri, r := range as.regions {
		rs := &s.regions[ri]
		rs.used = r.used
		rs.data = make([]byte, r.size)
		rs.pages = make([]pageState, len(r.pages))
		checkPerPage := r.checkPerPage()
		if checkPerPage > 0 {
			rs.check = make([]byte, len(r.pages)*checkPerPage)
		}
		for pi := range r.pages {
			p := &r.pages[pi]
			copy(rs.data[pi*ps:], p.data)
			if checkPerPage > 0 {
				copy(rs.check[pi*checkPerPage:], p.check)
			}
			st := &rs.pages[pi]
			st.corrected = p.corrected
			st.replaced = p.replaced
			st.stuckSet = cloneBytes(p.stuckSet)
			st.stuckClr = cloneBytes(p.stuckClr)
			st.anyTaint = p.anyTaint
			// An all-clear bitmap captures as nil: restore only needs
			// the set bits (anyTaint false forces a clear either way).
			st.taint = nil
			if p.anyTaint {
				st.taint = append([]uint64(nil), p.taint...)
			}
		}
		rs.backing = cloneBytes(r.backing)
		// (Re)arm dirty tracking from a clean slate.
		r.dirty = make([]bool, len(r.pages))
		r.dirtyList = r.dirtyList[:0]
	}
	as.snap = s
	return s
}

// Restore rolls the address space back to the captured state, touching
// only pages dirtied since the capture (or the previous Restore). It
// returns the number of pages restored. Restoring a superseded snapshot,
// or one whose address space has since mapped new regions, is an error.
func (s *Snapshot) Restore() (int, error) {
	as := s.as
	if as.snap != s {
		return 0, fmt.Errorf("simmem: snapshot superseded by a newer capture of this address space")
	}
	if len(as.regions) != len(s.regions) {
		return 0, fmt.Errorf("simmem: %d regions mapped, snapshot captured %d", len(as.regions), len(s.regions))
	}
	ps := as.pageSize
	restored := 0
	for ri, r := range as.regions {
		rs := &s.regions[ri]
		checkPerPage := r.checkPerPage()
		for _, pi := range r.dirtyList {
			p := &r.pages[pi]
			copy(p.data, rs.data[pi*ps:(pi+1)*ps])
			if checkPerPage > 0 {
				copy(p.check, rs.check[pi*checkPerPage:(pi+1)*checkPerPage])
			}
			st := &rs.pages[pi]
			p.corrected = st.corrected
			p.replaced = st.replaced
			p.stuckSet = cloneBytes(st.stuckSet)
			p.stuckClr = cloneBytes(st.stuckClr)
			// Taint transitions always dirty the page, so restoring the
			// dirty set restores the taint state exactly. The live
			// bitmap is reused in place (cleared or overwritten) so the
			// per-trial restore loop stays allocation-free once a page
			// has ever been tainted.
			p.anyTaint = st.anyTaint
			if st.taint == nil {
				if p.taint != nil {
					clear(p.taint)
				}
			} else {
				if p.taint == nil {
					p.taint = make([]uint64, len(st.taint))
				}
				copy(p.taint, st.taint)
			}
			if r.backing != nil {
				copy(r.backing[pi*ps:(pi+1)*ps], rs.backing[pi*ps:(pi+1)*ps])
			}
			r.dirty[pi] = false
			restored++
		}
		r.dirtyList = r.dirtyList[:0]
		r.used = rs.used
	}
	as.clock.now = s.clock
	as.counters = s.counters
	// Observers registered after the capture (per-trial trackers and
	// trace adapters) are dropped; retained ones get a trial reset.
	as.accessObs = as.accessObs[:s.nAccess]
	as.eccObs = as.eccObs[:s.nECC]
	for _, o := range as.accessObs {
		if tr, ok := o.(TrialResetter); ok {
			tr.ResetTrial()
		}
	}
	for _, o := range as.eccObs {
		if tr, ok := o.(TrialResetter); ok {
			tr.ResetTrial()
		}
	}
	for _, r := range as.regions {
		if tr, ok := r.mc.(TrialResetter); ok {
			tr.ResetTrial()
		}
	}
	return restored, nil
}

// DirtyPages returns the number of pages currently marked dirty (the
// work a Restore would do now).
func (s *Snapshot) DirtyPages() int {
	n := 0
	for _, r := range s.as.regions {
		n += len(r.dirtyList)
	}
	return n
}

// checkPerPage returns the region's per-page check storage size in
// bytes (zero when unprotected).
func (r *Region) checkPerPage() int {
	if r.codec == nil {
		return 0
	}
	return r.as.pageSize / r.codec.WordBytes() * r.codec.CheckBytes()
}

// markDirty records a mutation of page pi for the active snapshot. The
// nil check keeps the no-snapshot path free of tracking cost.
func (r *Region) markDirty(pi int) {
	if r.dirty == nil || r.dirty[pi] {
		return
	}
	r.dirty[pi] = true
	r.dirtyList = append(r.dirtyList, pi)
}

// cloneBytes copies a byte slice, preserving nil.
func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
