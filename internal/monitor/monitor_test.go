package monitor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hrmsim/internal/ecc"
	"hrmsim/internal/simmem"
	"hrmsim/internal/stats"
)

// env is a small simulated setup for monitor tests: every byte of both
// regions in use, and a record observing the space from t=0.
type env struct {
	as   *simmem.AddressSpace
	rec  *Profile
	heap *simmem.Region
	priv *simmem.Region
}

func newEnv(t *testing.T) *env {
	t.Helper()
	as, err := simmem.New(simmem.Config{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	priv, err := as.AddRegion(simmem.RegionSpec{
		Name: "private", Kind: simmem.RegionPrivate, Size: 4096, Backed: true, ReadOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	heap, err := as.AddRegion(simmem.RegionSpec{
		Name: "heap", Kind: simmem.RegionHeap, Size: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	priv.SetUsed(4096)
	heap.SetUsed(4096)
	rec := New(as)
	as.AddAccessObserver(rec)
	return &env{as: as, rec: rec, heap: heap, priv: priv}
}

func (e *env) store(t *testing.T, addr simmem.Addr, v byte, at time.Duration) {
	t.Helper()
	e.as.Clock().Set(at)
	if err := e.as.StoreU8(addr, v); err != nil {
		t.Fatal(err)
	}
}

func (e *env) load(t *testing.T, addr simmem.Addr, at time.Duration) {
	t.Helper()
	e.as.Clock().Set(at)
	if _, err := e.as.LoadU8(addr); err != nil {
		t.Fatal(err)
	}
}

// end closes the window at the given time.
func (e *env) end(at time.Duration) {
	e.as.Clock().Set(at)
	e.rec.Finish(e.as)
}

func (e *env) at(t *testing.T, addr simmem.Addr) Granule {
	t.Helper()
	g, ok := e.rec.At(addr)
	if !ok {
		t.Fatalf("address %#x is not in the record", uint64(addr))
	}
	return g
}

func TestSafeUnsafeDurations(t *testing.T) {
	e := newEnv(t)
	a := e.heap.Base() + 100

	// t=1m store; t=3m load (unsafe += 2m); t=4m store (safe += 1m);
	// t=10m load (unsafe += 6m).
	e.store(t, a, 1, 1*time.Minute)
	e.load(t, a, 3*time.Minute)
	e.store(t, a, 2, 4*time.Minute)
	e.load(t, a, 10*time.Minute)

	g := e.at(t, a)
	if g.Safe != 1*time.Minute {
		t.Errorf("safe = %v, want 1m", g.Safe)
	}
	if g.Unsafe != 8*time.Minute {
		t.Errorf("unsafe = %v, want 8m", g.Unsafe)
	}
	ratio, ok := g.SafeRatio()
	if want := float64(1) / 9; !ok || math.Abs(ratio-want) > 1e-12 {
		t.Errorf("safe ratio = %g (%v), want %g", ratio, ok, want)
	}
	if g.First != TouchOverwrite || g.Region != "heap" || g.Kind != simmem.RegionHeap {
		t.Errorf("granule = %+v, want first overwritten, in heap", g)
	}
}

func TestWriteOnlyAddressIsFullySafe(t *testing.T) {
	e := newEnv(t)
	a := e.heap.Base()
	e.store(t, a, 1, 1*time.Minute)
	e.store(t, a, 2, 2*time.Minute)
	e.store(t, a, 3, 5*time.Minute)
	if ratio, ok := e.at(t, a).SafeRatio(); ratio != 1 || !ok {
		t.Errorf("safe ratio = %g (%v), want 1", ratio, ok)
	}
}

func TestReadOnlyAddressIsFullyUnsafe(t *testing.T) {
	e := newEnv(t)
	a := e.priv.Base()
	if err := e.as.WriteRaw(a, []byte{7}); err != nil {
		t.Fatal(err)
	}
	e.load(t, a, 1*time.Minute)
	e.load(t, a, 2*time.Minute)
	if ratio, ok := e.at(t, a).SafeRatio(); ratio != 0 || !ok {
		t.Errorf("safe ratio = %g (%v), want 0 with an interval", ratio, ok)
	}
}

func TestSingleReferenceHasNoRatio(t *testing.T) {
	e := newEnv(t)
	a := e.heap.Base() + 8
	e.store(t, a, 1, time.Minute)
	if _, ok := e.at(t, a).SafeRatio(); ok {
		t.Error("single reference should not produce a ratio")
	}
	// Nor do two references at the same instant.
	e.load(t, a, time.Minute)
	if _, ok := e.at(t, a).SafeRatio(); ok {
		t.Error("two references at one instant produced a ratio")
	}
	if got := e.rec.SafeRatios([]simmem.Addr{a}, simmem.RegionHeap); got == nil || len(got) != 0 {
		t.Errorf("SafeRatios = %#v, want empty and non-nil", got)
	}
}

func TestRangeAccessTouchesWatchpoint(t *testing.T) {
	e := newEnv(t)
	a := e.heap.Base() + 250 // near a page boundary (page size 256)

	// A 16-byte store crossing the boundary covers the byte.
	e.as.Clock().Set(time.Minute)
	if err := e.as.Store(e.heap.Base()+248, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	e.as.Clock().Set(2 * time.Minute)
	buf := make([]byte, 16)
	if err := e.as.Load(e.heap.Base()+248, buf); err != nil {
		t.Fatal(err)
	}
	g := e.at(t, a)
	if g.First != TouchOverwrite {
		t.Errorf("first touch = %v, want the covering store", g.First)
	}
	if g.Unsafe != time.Minute || g.Safe != 0 {
		t.Errorf("safe/unsafe = %v/%v, want 0/1m", g.Safe, g.Unsafe)
	}
}

func TestAccessesNotCoveringWatchpointIgnored(t *testing.T) {
	e := newEnv(t)
	a := e.heap.Base() + 100
	e.store(t, a+1, 1, time.Minute) // adjacent, not covering
	e.load(t, a+1, 2*time.Minute)
	if g := e.at(t, a); g.First != TouchNever || g.Safe != 0 || g.Unsafe != 0 {
		t.Errorf("adjacent accesses counted: %+v", g)
	}
}

func TestMixedReadWriteRatioHalf(t *testing.T) {
	e := newEnv(t)
	a := e.heap.Base() + 16
	// Alternate store/load at equal intervals: safe and unsafe
	// durations accumulate equally.
	at := time.Minute
	for i := 0; i < 10; i++ {
		e.store(t, a, byte(i), at)
		at += time.Minute
		e.load(t, a, at)
		at += time.Minute
	}
	// First store has no prior reference; after that, 10 unsafe and 9
	// safe one-minute intervals.
	if g := e.at(t, a); g.Unsafe != 10*time.Minute || g.Safe != 9*time.Minute {
		t.Errorf("safe/unsafe = %v/%v", g.Safe, g.Unsafe)
	}
}

func TestRegionSafeSummaryAndWindow(t *testing.T) {
	e := newEnv(t)
	a1 := e.heap.Base()
	a2 := e.heap.Base() + 64

	// The virtual clock is monotone, so timestamps must not go backwards.
	e.store(t, a1, 1, time.Minute)
	e.store(t, a2, 1, time.Minute)
	e.store(t, a1, 2, 2*time.Minute) // a1 ratio 1
	e.load(t, a2, 2*time.Minute)     // a2 ratio 0
	e.end(2 * time.Minute)

	// Sample order, the private byte dropped by kind.
	ratios := e.rec.SafeRatios([]simmem.Addr{a2, e.priv.Base(), a1}, simmem.RegionHeap)
	if !reflect.DeepEqual(ratios, []float64{0, 1}) {
		t.Fatalf("heap safe ratios = %v, want [0 1]", ratios)
	}
	sum, err := stats.Summarize(ratios)
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 2 || sum.Mean != 0.5 {
		t.Errorf("summary = %+v, want N=2 Mean=0.5", sum)
	}
	if e.rec.Window() != 2*time.Minute {
		t.Errorf("Window = %v, want 2m", e.rec.Window())
	}
	if e.rec.Accesses != 4 {
		t.Errorf("accesses = %d, want 4", e.rec.Accesses)
	}
	want := []Region{
		{Base: e.priv.Base(), Name: "private", Kind: simmem.RegionPrivate, Used: 4096},
		{Base: e.heap.Base(), Name: "heap", Kind: simmem.RegionHeap, Used: 4096},
	}
	if got := e.rec.Regions(); !reflect.DeepEqual(got, want) {
		t.Errorf("regions = %+v, want %+v", got, want)
	}
}

func TestWatchSampleProportional(t *testing.T) {
	e := newEnv(t)
	e.priv.SetUsed(3000)
	e.heap.SetUsed(1000)
	got := Sample(e.as, rand.New(rand.NewSource(1)), 400)
	var priv, heap int
	for _, a := range got {
		switch {
		case e.priv.Contains(a) && a < e.priv.Base()+3000:
			priv++
		case e.heap.Contains(a) && a < e.heap.Base()+1000:
			heap++
		default:
			t.Fatalf("sampled %#x, outside the used bytes", uint64(a))
		}
	}
	// Shares proportional to used bytes: 400·3000/4000 and 400·1000/4000.
	if priv != 300 || heap != 100 {
		t.Errorf("sampled %d private, %d heap; want 300, 100", priv, heap)
	}

	// A region too small for its floor (400/8 = 50) yields each of its
	// bytes once, then gives up; nothing is drawn twice.
	e.heap.SetUsed(10)
	got = Sample(e.as, rand.New(rand.NewSource(1)), 400)
	seen := map[simmem.Addr]bool{}
	heap = 0
	for _, a := range got {
		if seen[a] {
			t.Fatalf("%#x sampled twice", uint64(a))
		}
		seen[a] = true
		if e.heap.Contains(a) {
			heap++
		}
	}
	if heap != 10 || len(got) != 398+10 {
		t.Errorf("sampled %d heap of %d, want 10 of 408", heap, len(got))
	}
}

func TestWatchSampleNoUsedBytes(t *testing.T) {
	e := newEnv(t)
	e.priv.SetUsed(0)
	e.heap.SetUsed(0)
	if got := Sample(e.as, rand.New(rand.NewSource(2)), 10); len(got) != 0 {
		t.Errorf("sampled %d addresses with no used bytes", len(got))
	}
}

func TestRecoverabilityImplicit(t *testing.T) {
	e := newEnv(t)
	// Private region: read-only, backed — fully implicitly recoverable.
	e.priv.SetUsed(1024) // 4 pages
	e.end(time.Hour)
	rec, err := e.rec.RecoverabilityOf(e.priv.Base())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Implicit != 1 || rec.Explicit != 1 {
		t.Errorf("implicit = %g, explicit = %g, want 1,1", rec.Implicit, rec.Explicit)
	}
	if rec.Pages != 4 {
		t.Errorf("pages = %d, want 4", rec.Pages)
	}
}

func TestRecoverabilityExplicitByWriteInterval(t *testing.T) {
	e := newEnv(t)
	e.heap.SetUsed(256)
	rec := New(e.as) // made while only page 0 is in use
	e.as.AddAccessObserver(rec)
	e.rec = rec

	// Page 0: written twice in an hour — cold enough. Page 1, which comes
	// into use during the window: written every minute — too hot for
	// explicit recovery.
	e.heap.SetUsed(512)
	for i := 0; i < 60; i++ {
		at := time.Duration(i+1) * time.Minute
		if i == 29 {
			e.store(t, e.heap.Base(), 1, at)
		}
		e.store(t, e.heap.Base()+256, byte(i), at)
	}
	e.store(t, e.heap.Base(), 2, time.Hour)
	e.end(time.Hour)

	got, err := rec.RecoverabilityOf(e.heap.Base())
	if err != nil {
		t.Fatal(err)
	}
	if want := (Recoverability{Implicit: 0, Explicit: 0.5, Pages: 2}); got != want {
		t.Errorf("recoverability = %+v, want %+v", got, want)
	}
}

func TestRecoverabilityBackedWrittenPage(t *testing.T) {
	// A backed but writable region: untouched pages are implicit,
	// written pages are not.
	as, err := simmem.New(simmem.Config{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	r, err := as.AddRegion(simmem.RegionSpec{
		Name: "data", Kind: simmem.RegionPrivate, Size: 1024, Backed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := New(as)
	as.AddAccessObserver(rec)
	r.SetUsed(512) // 2 pages

	as.Clock().Set(time.Minute)
	if err := as.StoreU8(r.Base(), 1); err != nil { // dirty page 0
		t.Fatal(err)
	}
	as.Clock().Set(time.Hour)
	rec.Finish(as)
	got, err := rec.RecoverabilityOf(r.Base())
	if err != nil {
		t.Fatal(err)
	}
	if got.Implicit != 0.5 {
		t.Errorf("implicit = %g, want 0.5", got.Implicit)
	}
	// Page 0 written once in an hour: interval 1h >= 5m, so explicit.
	if got.Explicit != 1 {
		t.Errorf("explicit = %g, want 1", got.Explicit)
	}
}

func TestRecoverabilityErrorsAndEmpty(t *testing.T) {
	e := newEnv(t)
	late, err := e.as.AddRegion(simmem.RegionSpec{Name: "late", Kind: simmem.RegionStack, Size: 256})
	if err != nil {
		t.Fatal(err)
	}
	e.heap.SetUsed(0)
	e.end(0)
	if _, err := e.rec.RecoverabilityOf(late.Base()); err == nil {
		t.Error("a region mapped after the record was made was accepted")
	}
	rec, err := e.rec.RecoverabilityOf(e.heap.Base())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Pages != 0 {
		t.Errorf("pages = %d for unused region, want 0", rec.Pages)
	}
}

// TestProfileFirstTouchStates drives the record's per-granule state
// machine directly: codeword granules in a protected region, byte
// granules in an unprotected one, spans crossing granules, and only the
// first reference counting.
func TestProfileFirstTouchStates(t *testing.T) {
	as, err := simmem.New(simmem.Config{PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := as.AddRegion(simmem.RegionSpec{Name: "prot", Kind: simmem.RegionHeap, Size: 64, Codec: ecc.NewSECDED()})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := as.AddRegion(simmem.RegionSpec{Name: "bare", Kind: simmem.RegionStack, Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	prot.SetUsed(40) // five codewords
	bare.SetUsed(16)
	p := New(as)
	store := func(r *simmem.Region, off, n int) {
		p.ObserveAccess(simmem.AccessEvent{Addr: r.Base() + simmem.Addr(off), Len: n, Kind: simmem.Store, Region: r})
	}
	load := func(r *simmem.Region, off, n int) {
		p.ObserveAccess(simmem.AccessEvent{Addr: r.Base() + simmem.Addr(off), Len: n, Kind: simmem.Load, Region: r})
	}
	// Codeword 0: whole-word store, later loaded — the store counts.
	store(prot, 0, 8)
	load(prot, 0, 8)
	// Codeword 1: a partial store reads the rest back through the decoder.
	store(prot, 10, 4)
	store(prot, 8, 8)
	// Codewords 2–3: one store covering 2 whole and half of 3.
	store(prot, 16, 12)
	// Codeword 4: never referenced. A zero-length load references nothing.
	load(prot, 32, 0)
	// Bytes: any store covers a byte; a load first senses it.
	store(bare, 2, 3)
	load(bare, 4, 2)
	load(bare, 100, 4) // beyond the used bytes: ignored, not out of range

	o, s, n := TouchOverwrite, TouchSensed, TouchNever
	want := map[*simmem.Region][]Touch{
		// Per codeword; every byte of one reads the same granule.
		prot: {o, s, o, s, n},
		bare: {n, n, o, o, o, s, n, n, n, n, n, n, n, n, n, n},
	}
	for r, firsts := range want {
		unit := len(firsts)
		granule := r.Used() / unit
		for off := 0; off < r.Used(); off++ {
			g, ok := p.At(r.Base() + simmem.Addr(off))
			if !ok || g.First != firsts[off/granule] || g.Region != r.Name() || g.Kind != r.Kind() {
				t.Errorf("%s+%d: %+v (%v), want first touch %v", r.Name(), off, g, ok, firsts[off/granule])
			}
		}
		if _, ok := p.At(r.Base() + simmem.Addr(r.Used())); ok {
			t.Errorf("%s: a byte past the used ones is in the record", r.Name())
		}
	}
	if p.Accesses != 9 {
		t.Errorf("accesses = %d, want 9", p.Accesses)
	}
}
