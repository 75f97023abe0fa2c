package simmem

import (
	"bytes"
	"fmt"
	"testing"
)

func pageTainted(r *Region, pi int) bool { return r.pages[pi].anyTaint }

func TestTaintTransitions(t *testing.T) {
	as, r := newProtectedAS(t, replicaCodec{}, nil)
	if got := as.TaintedPages(); got != 0 {
		t.Fatalf("fresh space has %d tainted pages, want 0", got)
	}

	// Every corruption channel taints its page.
	if err := as.FlipBit(r.Base(), 3); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	if !pageTainted(r, 0) {
		t.Error("FlipBit did not taint the page")
	}
	if err := as.FlipCheckBit(r.Base()+256, 0); err != nil {
		t.Fatalf("FlipCheckBit: %v", err)
	}
	if !pageTainted(r, 1) {
		t.Error("FlipCheckBit did not taint the page")
	}
	if err := as.StickBit(r.Base()+512, 2, 1); err != nil {
		t.Fatalf("StickBit: %v", err)
	}
	if !pageTainted(r, 2) {
		t.Error("StickBit did not taint the page")
	}
	if got := as.TaintedPages(); got != 3 {
		t.Fatalf("TaintedPages = %d, want 3", got)
	}

	// An ordinary store re-encodes the touched words but cannot prove the
	// rest of the page clean: taint must survive.
	if err := as.Store(r.Base()+64, make([]byte, 16)); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if !pageTainted(r, 0) {
		t.Error("Store cleared taint without proving the page clean")
	}

	// A write-back scrub repairs the flipped bits and re-admits page 0.
	if _, _, err := r.ScrubPage(0, true); err != nil {
		t.Fatalf("ScrubPage: %v", err)
	}
	if pageTainted(r, 0) {
		t.Error("write-back scrub left a repaired page tainted")
	}
	// Scrubbing without write-back corrects on the fly but leaves the
	// erroneous stored bytes: the page must stay tainted.
	if err := as.FlipBit(r.Base(), 3); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	if c, _, err := r.ScrubPage(0, false); err != nil || c != 1 {
		t.Fatalf("ScrubPage(no write-back) = %d corrected, err %v; want 1, nil", c, err)
	}
	if !pageTainted(r, 0) {
		t.Error("scrub without write-back cleared taint despite stored errors")
	}

	// A scrub cannot clear a stuck-at page; frame replacement can.
	if _, _, err := r.ScrubPage(2, true); err != nil {
		t.Fatalf("ScrubPage: %v", err)
	}
	if !pageTainted(r, 2) {
		t.Error("scrub cleared taint on a page with stuck-at state")
	}
	if err := r.ReplaceFrame(2); err != nil {
		t.Fatalf("ReplaceFrame: %v", err)
	}
	if pageTainted(r, 2) {
		t.Error("ReplaceFrame left the fresh frame tainted")
	}

	// RestoreWord repairs the only erroneous word on page 1 and verifies
	// the whole page back to clean.
	if err := r.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if err := r.RestoreWord(r.Base() + 256); err != nil {
		t.Fatalf("RestoreWord: %v", err)
	}
	if pageTainted(r, 1) {
		t.Error("RestoreWord did not clear taint on a verifiably clean page")
	}

	// RestoreWord on a page with a second, unrepaired error must not
	// clear taint.
	if err := as.FlipBit(r.Base()+256, 1); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	if err := as.FlipBit(r.Base()+256+128, 1); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	if err := r.RestoreWord(r.Base() + 256); err != nil {
		t.Fatalf("RestoreWord: %v", err)
	}
	if !pageTainted(r, 1) {
		t.Error("RestoreWord cleared taint with an unrepaired error elsewhere on the page")
	}
}

func TestTaintSnapshotRestore(t *testing.T) {
	as, r := newProtectedAS(t, replicaCodec{}, nil)
	snap := as.Snapshot()

	// Taint after the capture; restore must roll the flag back.
	if err := as.FlipBit(r.Base(), 0); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	if as.TaintedPages() != 1 {
		t.Fatalf("TaintedPages = %d, want 1", as.TaintedPages())
	}
	if _, err := snap.Restore(); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if as.TaintedPages() != 0 {
		t.Errorf("restore left %d tainted pages, want 0", as.TaintedPages())
	}

	// Capture a tainted state, clean it, and restore: the taint (and the
	// erroneous byte under it) must come back.
	if err := as.FlipBit(r.Base(), 0); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	snap = as.Snapshot()
	if _, _, err := r.ScrubPage(0, true); err != nil {
		t.Fatalf("ScrubPage: %v", err)
	}
	if as.TaintedPages() != 0 {
		t.Fatalf("scrub left %d tainted pages, want 0", as.TaintedPages())
	}
	if _, err := snap.Restore(); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if as.TaintedPages() != 1 {
		t.Errorf("restore rebuilt %d tainted pages, want 1", as.TaintedPages())
	}
	var b [1]byte
	if err := as.ReadRaw(r.Base(), b[:]); err != nil {
		t.Fatalf("ReadRaw: %v", err)
	}
	if b[0] != 1 {
		t.Errorf("restored stored byte = %#x, want the re-flipped 0x01", b[0])
	}
}

func TestFastPathCounters(t *testing.T) {
	as, r := newProtectedAS(t, replicaCodec{}, nil)
	buf := make([]byte, 32)
	if err := as.Load(r.Base(), buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if as.FastPathLoads() != 1 {
		t.Fatalf("FastPathLoads = %d after clean load, want 1", as.FastPathLoads())
	}

	// A tainted page forces the slow path; the counter must not move.
	if err := as.FlipBit(r.Base(), 0); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	if err := as.Load(r.Base(), buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if as.FastPathLoads() != 1 {
		t.Fatalf("FastPathLoads = %d after tainted load, want 1", as.FastPathLoads())
	}

	// Re-admission via write-back scrub restores the fast path.
	if _, _, err := r.ScrubPage(0, true); err != nil {
		t.Fatalf("ScrubPage: %v", err)
	}
	if err := as.Load(r.Base(), buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if as.FastPathLoads() != 2 {
		t.Fatalf("FastPathLoads = %d after scrubbed load, want 2", as.FastPathLoads())
	}

	// SetFastPath(false) drives the slow path even on clean pages.
	if prev := as.SetFastPath(false); !prev {
		t.Error("SetFastPath returned prev=false on an enabled space")
	}
	if err := as.Load(r.Base(), buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if as.FastPathLoads() != 2 {
		t.Fatalf("FastPathLoads = %d with fast path off, want 2", as.FastPathLoads())
	}
	as.SetFastPath(true)
}

// TestFastSlowLoadIdentical pins the bit-identity of the two paths on the
// same space: a clean load, a load over a stuck-at page, and a load over
// a corrected word must return the same bytes either way.
func TestFastSlowLoadIdentical(t *testing.T) {
	as, r := newProtectedAS(t, replicaCodec{}, nil)
	want := make([]byte, 64)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := as.Store(r.Base()+32, want); err != nil {
		t.Fatalf("Store: %v", err)
	}
	got := make([]byte, 64)
	for _, fast := range []bool{true, false} {
		as.SetFastPath(fast)
		for i := range got {
			got[i] = 0
		}
		if err := as.Load(r.Base()+32, got); err != nil {
			t.Fatalf("Load(fast=%v): %v", fast, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Load(fast=%v) = %x, want %x", fast, got, want)
		}
	}
}

func TestFindRegionCacheCoherence(t *testing.T) {
	as := newTestAS(t)
	regions := as.Regions()
	// Alternate across regions, hitting first/last bytes, so every lookup
	// either hits or replaces the one-entry cache; then probe unmapped
	// addresses (gaps, below the first base, past the end).
	for pass := 0; pass < 3; pass++ {
		for _, r := range regions {
			for _, addr := range []Addr{r.Base(), r.Base() + Addr(r.Size()) - 1} {
				if got := as.findRegion(addr); got != r {
					t.Fatalf("findRegion(%#x) = %v, want region %q", addr, got, r.Name())
				}
			}
			if got := as.findRegion(r.Base() + Addr(r.Size())); got != nil && !got.Contains(r.Base()+Addr(r.Size())) {
				t.Fatalf("findRegion just past %q returned a non-containing region", r.Name())
			}
		}
		if got := as.findRegion(0); got != nil {
			t.Fatalf("findRegion(0) = %q, want nil", got.Name())
		}
		last := regions[len(regions)-1]
		if got := as.findRegion(last.Base() + Addr(last.Size()) + regionGap); got != nil {
			t.Fatalf("findRegion past the last region = %q, want nil", got.Name())
		}
	}
	// Mapping a new region after lookups must be visible immediately
	// (append-only layout keeps the cached pointer valid, not the search).
	nr, err := as.AddRegion(RegionSpec{Name: "late", Kind: RegionOther, Size: 512})
	if err != nil {
		t.Fatalf("AddRegion: %v", err)
	}
	if got := as.findRegion(nr.Base()); got != nr {
		t.Fatalf("findRegion missed a freshly mapped region")
	}
	if got := as.findRegion(regions[0].Base()); got != regions[0] {
		t.Fatalf("findRegion lost the first region after mapping a new one")
	}
}

// TestAccessPathAllocations pins the scratch-buffer hoisting: steady-state
// loads and stores allocate nothing on either path.
func TestAccessPathAllocations(t *testing.T) {
	as, r := newProtectedAS(t, replicaCodec{}, nil)
	buf := make([]byte, 24)
	// Unaligned on purpose so stores exercise the partial-word RMW.
	addr := r.Base() + 3

	for _, fast := range []bool{true, false} {
		as.SetFastPath(fast)
		if n := testing.AllocsPerRun(100, func() {
			if err := as.Load(addr, buf); err != nil {
				t.Fatalf("Load: %v", err)
			}
		}); n != 0 {
			t.Errorf("Load(fast=%v) allocates %v per op, want 0", fast, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := as.Store(addr, buf); err != nil {
				t.Fatalf("Store: %v", err)
			}
		}); n != 0 {
			t.Errorf("Store(fast=%v) allocates %v per op, want 0", fast, n)
		}
	}
	as.SetFastPath(true)
	if n := testing.AllocsPerRun(100, func() {
		if err := as.WriteRaw(addr, buf); err != nil {
			t.Fatalf("WriteRaw: %v", err)
		}
	}); n != 0 {
		t.Errorf("WriteRaw allocates %v per op, want 0", n)
	}
}

// TestScratchReentrancy drives an MC handler that re-enters the memory
// path (as Par+R recovery does) while the faulting load holds the scratch
// buffers: the repair must not clobber the outer frame's word.
func TestScratchReentrancy(t *testing.T) {
	as, err := New(Config{PageSize: 256})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r, err := as.AddRegion(RegionSpec{
		Name: "prot", Kind: RegionHeap, Size: 1024, Backed: true, Codec: parityOnlyCodec{},
	})
	if err != nil {
		t.Fatalf("AddRegion: %v", err)
	}
	want := make([]byte, 16)
	for i := range want {
		want[i] = byte(0x40 + i)
	}
	if err := as.Store(r.Base(), want); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if err := r.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	// Corrupt one word; parity detects but cannot correct, so the load
	// raises a machine check and the handler restores from backing —
	// which itself walks WriteRaw through the scratch-acquire path.
	if err := as.FlipBit(r.Base()+8, 5); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	r.SetMCHandler(MCHandlerFunc(func(_ *AddressSpace, ev MCEvent) MCAction {
		if err := ev.Region.RestoreWord(ev.Addr); err != nil {
			t.Fatalf("RestoreWord in handler: %v", err)
		}
		return MCRecovered
	}))
	got := make([]byte, 16)
	if err := as.Load(r.Base(), got); err != nil {
		t.Fatalf("Load with recovering handler: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recovered load = %x, want %x", got, want)
	}
	if as.TaintedPages() != 0 {
		t.Errorf("page still tainted after full-word restore, want clean")
	}
	c := as.Counters()
	if c.Uncorrectable != 1 || c.Recovered != 1 {
		t.Errorf("counters = %+v, want 1 uncorrectable / 1 recovered", c)
	}
}

// TestWordTaintBitmap pins the per-codeword bitmap mechanics: set and
// clear round-trip exactly, the page summary bit tracks the bitmap, and
// page-wide operations touch every word.
func TestWordTaintBitmap(t *testing.T) {
	as, r := newProtectedAS(t, replicaCodec{}, nil)
	p := &r.pages[0]
	if p.anyTaint {
		t.Fatal("fresh page has its summary bit set")
	}
	r.taintWord(0, 3)
	if !p.wordTainted(3) || p.wordTainted(2) || p.wordTainted(4) {
		t.Error("taintWord(3) did not set exactly word 3")
	}
	if !p.anyTaint {
		t.Error("summary bit not raised by taintWord")
	}
	lastW := r.wordsPerPage - 1
	r.taintWord(0, lastW)
	if pg, w := as.TaintStats(); pg != 1 || w != 2 {
		t.Fatalf("TaintStats = %d pages / %d words, want 1/2", pg, w)
	}
	// Clearing one word keeps the summary up while the other holds.
	r.clearWordTaint(0, 3)
	if p.wordTainted(3) {
		t.Error("clearWordTaint(3) left word 3 tainted")
	}
	if !p.anyTaint {
		t.Error("summary bit dropped with a word still tainted")
	}
	r.clearWordTaint(0, lastW)
	if p.anyTaint {
		t.Error("summary bit held after the last word was cleared")
	}
	// Page-wide set and clear.
	r.taintPage(1)
	p1 := &r.pages[1]
	for wi := 0; wi < r.wordsPerPage; wi++ {
		if !p1.wordTainted(wi) {
			t.Fatalf("taintPage left word %d clean", wi)
		}
	}
	r.clearPageTaint(1)
	if p1.anyTaint {
		t.Error("clearPageTaint left the summary bit set")
	}
	if pg, w := as.TaintStats(); pg != 0 || w != 0 {
		t.Errorf("TaintStats after full clear = %d/%d, want 0/0", pg, w)
	}
}

// TestVerifyWordClean pins the bitmap's ground-truth audit: a corrupted
// codeword fails verification, its neighbors pass, stuck-at state blocks
// verification even when the stored bytes decode clean, and a write-back
// scrub restores verifiability.
func TestVerifyWordClean(t *testing.T) {
	as, r := newProtectedAS(t, replicaCodec{}, nil)
	g := r.granule
	const wi = 2
	if !r.verifyWordClean(0, wi) {
		t.Fatal("fresh word does not verify clean")
	}
	if err := as.FlipBit(r.Base()+Addr(wi*g), 0); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	if r.verifyWordClean(0, wi) {
		t.Error("corrupted word verified clean")
	}
	if !r.verifyWordClean(0, wi+1) || !r.verifyWordClean(0, wi-1) {
		t.Error("corruption in word 2 broke verification of its neighbors")
	}
	// A bit stuck at its current stored value changes no bytes — the word
	// still decodes clean — but the invariant requires no stuck-at state.
	if err := as.StickBit(r.Base()+Addr(5*g), 1, 0); err != nil {
		t.Fatalf("StickBit: %v", err)
	}
	if r.verifyWordClean(0, 5) {
		t.Error("word with stuck-at state verified clean")
	}
	if _, _, err := r.ScrubPage(0, true); err != nil {
		t.Fatalf("ScrubPage: %v", err)
	}
	if !r.verifyWordClean(0, wi) {
		t.Error("write-back scrub did not restore verifiability")
	}
}

// TestWordTaintSnapshotRestore pins the word-granular round-trip through
// Snapshot/Restore: the restored bitmap reproduces the captured state
// bit-for-bit, not just the page summary.
func TestWordTaintSnapshotRestore(t *testing.T) {
	as, r := newProtectedAS(t, replicaCodec{}, nil)
	g := r.granule
	const wi = 3
	if err := as.FlipBit(r.Base()+Addr(wi*g), 1); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	if pg, w := as.TaintStats(); pg != 1 || w != 1 {
		t.Fatalf("TaintStats = %d/%d after one flip, want 1/1", pg, w)
	}
	snap := as.Snapshot()
	if _, _, err := r.ScrubPage(0, true); err != nil {
		t.Fatalf("ScrubPage: %v", err)
	}
	if pg, w := as.TaintStats(); pg != 0 || w != 0 {
		t.Fatalf("TaintStats = %d/%d after scrub, want 0/0", pg, w)
	}
	if _, err := snap.Restore(); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if pg, w := as.TaintStats(); pg != 1 || w != 1 {
		t.Fatalf("TaintStats = %d/%d after restore, want 1/1", pg, w)
	}
	p := &r.pages[0]
	for k := 0; k < r.wordsPerPage; k++ {
		if p.wordTainted(k) != (k == wi) {
			t.Errorf("restored bitmap: word %d tainted=%v, want %v", k, p.wordTainted(k), k == wi)
		}
	}
}

// TestAccessorSpanZeroAlloc pins the span-access API at zero allocations
// per op in steady state — on clean pages, on a partially-tainted page
// (one word carries harmless stuck-at state, forcing the per-word walk),
// and for the typed helpers.
func TestAccessorSpanZeroAlloc(t *testing.T) {
	as, r := newProtectedAS(t, replicaCodec{}, nil)
	acc := as.NewAccessor()
	base := r.Base()
	buf := make([]byte, 48)
	// Stick byte 0's bit 0 at its current value: the word is tainted (the
	// bitmap cannot prove it clean) but senses and decodes unchanged, so
	// slow-path walks stay error- and event-free.
	if err := as.StickBit(base, 0, 0); err != nil {
		t.Fatalf("StickBit: %v", err)
	}
	pin := func(name string, fn func() error) {
		t.Helper()
		if n := testing.AllocsPerRun(200, func() {
			if err := fn(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}); n != 0 {
			t.Errorf("%s allocates %v per op, want 0", name, n)
		}
	}
	pin("Load(span across tainted word)", func() error { return acc.Load(base, buf) })
	pin("Store(span across tainted word)", func() error { return acc.Store(base+1, buf[:23]) })
	pin("Load(clean page)", func() error { return acc.Load(base+512, buf) })
	pin("Store(clean page)", func() error { return acc.Store(base+512, buf) })
	pin("LoadU64", func() error { _, err := acc.LoadU64(base + 256); return err })
	// The space's own typed helpers are the embedded accessor's, promoted.
	pin("AddressSpace.LoadU64", func() error { _, err := as.LoadU64(base + 256); return err })
	pin("StoreU64", func() error { return acc.StoreU64(base+256, 0xfeedbeef) })
	pin("LoadF64", func() error { _, err := acc.LoadF64(base + 264); return err })
	pin("LoadU32", func() error { _, err := acc.LoadU32(base + 272); return err })
	pin("LoadU8", func() error { _, err := acc.LoadU8(base + 276); return err })
	// The space's other typed helpers, on the clean page (the front end's
	// fast check) and on the tainted one (its fall-through to Load/Store).
	for _, at := range []Addr{base + 256, base + 8} {
		pin("AddressSpace.LoadU32", func() error { _, err := as.LoadU32(at + 4); return err })
		pin("AddressSpace.LoadF64", func() error { _, err := as.LoadF64(at); return err })
		pin("AddressSpace.StoreU64", func() error { return as.StoreU64(at, 0xfeedbeef) })
		pin("AddressSpace.StoreU32", func() error { return as.StoreU32(at+4, 0xbeef) })
	}
}

// TestWildAddressesFault drives every access entry point of a warm
// accessor at addresses around and far from its cached region: below the
// base, one past the end, straddling the last page, and near 2^64. Each
// must return what the reference path (SetFastPath(false)) returns — the
// same *Fault, kind and address, or the same value — and none may panic:
// the front end's fast check bounds the span with unsigned arithmetic, so
// a wild pointer cannot turn into a negative page index.
func TestWildAddressesFault(t *testing.T) {
	for _, codec := range []Codec{nil, replicaCodec{}} {
		as, err := New(Config{PageSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"below", "warm", "above"} {
			if _, err := as.AddRegion(RegionSpec{Name: name, Kind: RegionHeap, Size: 1024, Codec: codec}); err != nil {
				t.Fatal(err)
			}
		}
		r := as.RegionByName("warm")
		end := r.Base() + Addr(r.Size())
		ops := []struct {
			name string
			do   func(a *Accessor, addr Addr) (string, error)
		}{
			{"LoadU64", func(a *Accessor, addr Addr) (string, error) { v, err := a.LoadU64(addr); return fmt.Sprint(v), err }},
			{"LoadU32", func(a *Accessor, addr Addr) (string, error) { v, err := a.LoadU32(addr); return fmt.Sprint(v), err }},
			{"LoadU8", func(a *Accessor, addr Addr) (string, error) { v, err := a.LoadU8(addr); return fmt.Sprint(v), err }},
			{"LoadF64", func(a *Accessor, addr Addr) (string, error) { v, err := a.LoadF64(addr); return fmt.Sprint(v), err }},
			{"Load", func(a *Accessor, addr Addr) (string, error) {
				buf := make([]byte, 16)
				err := a.Load(addr, buf)
				return fmt.Sprintf("%x", buf), err
			}},
			{"StoreU64", func(a *Accessor, addr Addr) (string, error) { return "", a.StoreU64(addr, 0x0102030405060708) }},
			{"StoreU32", func(a *Accessor, addr Addr) (string, error) { return "", a.StoreU32(addr, 0x0a0b0c0d) }},
			{"StoreU8", func(a *Accessor, addr Addr) (string, error) { return "", a.StoreU8(addr, 0xee) }},
			{"StoreF64", func(a *Accessor, addr Addr) (string, error) { return "", a.StoreF64(addr, 2.5) }},
			{"Store", func(a *Accessor, addr Addr) (string, error) { return "", a.Store(addr, make([]byte, 16)) }},
		}
		addrs := []Addr{
			r.Base() - 1, r.Base() - 8, r.Base() - Addr(r.Size()), 0, // below the base
			end, end + 7, // one past the end
			end - 1, end - 3, end - 7, end - 15, // straddling the last page's end
			^Addr(0), ^Addr(0) - 3, ^Addr(0) - 7, ^Addr(0) - 15, 1 << 63, // near 2^64
		}
		// call runs op at addr on a fresh accessor warmed on r, so the fast
		// check always starts from r in the cache.
		call := func(op func(*Accessor, Addr) (string, error), addr Addr) (out string, err error) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%#x: panic %v", uint64(addr), p)
				}
			}()
			a := as.NewAccessor()
			if _, err := a.LoadU8(r.Base()); err != nil {
				t.Fatalf("warming: %v", err)
			}
			return op(a, addr)
		}
		for _, op := range ops {
			for _, addr := range addrs {
				as.SetFastPath(false)
				wantOut, wantErr := call(op.do, addr)
				as.SetFastPath(true)
				gotOut, gotErr := call(op.do, addr)
				if gotOut != wantOut || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("codec %v %s(%#x) = %q, %v; reference path %q, %v", codec, op.name, uint64(addr), gotOut, gotErr, wantOut, wantErr)
				}
				if wantErr != nil {
					f, ok := AsFault(gotErr)
					wf, _ := AsFault(wantErr)
					if !ok || wf == nil || *f != *wf {
						t.Errorf("codec %v %s(%#x): fault %#v, want %#v", codec, op.name, uint64(addr), gotErr, wantErr)
					}
				}
			}
		}
	}
}
