package simmem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// newTestAS builds an address space with one unprotected region of each
// application kind.
func newTestAS(t *testing.T) *AddressSpace {
	t.Helper()
	as, err := New(Config{PageSize: 256})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	specs := []RegionSpec{
		{Name: "private", Kind: RegionPrivate, Size: 4096, Backed: true},
		{Name: "heap", Kind: RegionHeap, Size: 4096},
		{Name: "stack", Kind: RegionStack, Size: 1024},
	}
	for _, s := range specs {
		if _, err := as.AddRegion(s); err != nil {
			t.Fatalf("AddRegion(%q): %v", s.Name, err)
		}
	}
	return as
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{PageSize: 100}); err == nil {
		t.Error("expected error for non-power-of-two page size")
	}
	if _, err := New(Config{PageSize: 8}); err == nil {
		t.Error("expected error for tiny page size")
	}
	as, err := New(Config{})
	if err != nil {
		t.Fatalf("New with defaults: %v", err)
	}
	if as.PageSize() != 4096 {
		t.Errorf("default page size = %d, want 4096", as.PageSize())
	}
	if as.Clock() == nil {
		t.Error("default clock is nil")
	}
}

func TestAddRegionValidation(t *testing.T) {
	as := newTestAS(t)
	if _, err := as.AddRegion(RegionSpec{Name: "bad", Size: 0}); err == nil {
		t.Error("expected error for zero size")
	}
	if _, err := as.AddRegion(RegionSpec{Name: "heap", Size: 64}); err == nil {
		t.Error("expected error for duplicate name")
	}
}

func TestRegionLayoutHasGuardGaps(t *testing.T) {
	as := newTestAS(t)
	rs := as.Regions()
	if len(rs) != 3 {
		t.Fatalf("got %d regions, want 3", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		gap := rs[i].Base() - (rs[i-1].Base() + Addr(rs[i-1].Size()))
		if gap < regionGap {
			t.Errorf("gap between %q and %q is %d, want >= %d",
				rs[i-1].Name(), rs[i].Name(), gap, regionGap)
		}
	}
	// The guard gap between regions must be unmapped.
	probe := rs[0].Base() + Addr(rs[0].Size()) + 10
	err := as.Load(probe, make([]byte, 1))
	f, ok := AsFault(err)
	if !ok || f.Kind != FaultUnmapped {
		t.Errorf("load in guard gap: err = %v, want unmapped fault", err)
	}
}

func TestRegionLookups(t *testing.T) {
	as := newTestAS(t)
	if r := as.RegionByKind(RegionHeap); r == nil || r.Name() != "heap" {
		t.Errorf("RegionByKind(heap) = %v", r)
	}
	if r := as.RegionByName("stack"); r == nil || r.Kind() != RegionStack {
		t.Errorf("RegionByName(stack) = %v", r)
	}
	if as.RegionByName("nope") != nil || as.RegionByKind(RegionOther) != nil {
		t.Error("lookup of absent region should return nil")
	}
}

func TestLoadStoreRoundtripAcrossPages(t *testing.T) {
	as := newTestAS(t)
	heap := as.RegionByName("heap")
	// Write a buffer spanning a page boundary (page size 256).
	addr := heap.Base() + 200
	data := make([]byte, 150)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := as.Store(addr, data); err != nil {
		t.Fatalf("Store: %v", err)
	}
	got := make([]byte, len(data))
	if err := as.Load(addr, got); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("roundtrip mismatch across page boundary")
	}
	c := as.Counters()
	if c.Loads != 1 || c.Stores != 1 {
		t.Errorf("counters = %+v, want 1 load, 1 store", c)
	}
}

func TestFaults(t *testing.T) {
	as := newTestAS(t)
	heap := as.RegionByName("heap")

	tests := []struct {
		name string
		err  error
		want FaultKind
	}{
		{"unmapped low", as.Load(0x10, make([]byte, 1)), FaultUnmapped},
		{"unmapped high", as.Load(1<<40, make([]byte, 1)), FaultUnmapped},
		{"out of range", as.Load(heap.Base()+Addr(heap.Size())-2, make([]byte, 8)), FaultOutOfRange},
		{"read-only", as.Store(as.RegionByName("private").Base(), []byte{1}), FaultReadOnly},
	}
	// The private region in newTestAS is not read-only; map one that is.
	as2 := newTestAS(t)
	ro, err := as2.AddRegion(RegionSpec{Name: "ro", Kind: RegionPrivate, Size: 256, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	tests[3].err = as2.Store(ro.Base(), []byte{1})

	for _, tt := range tests {
		f, ok := AsFault(tt.err)
		if !ok {
			t.Errorf("%s: err = %v, want a fault", tt.name, tt.err)
			continue
		}
		if f.Kind != tt.want {
			t.Errorf("%s: fault kind = %v, want %v", tt.name, f.Kind, tt.want)
		}
		if f.Error() == "" {
			t.Errorf("%s: empty fault message", tt.name)
		}
	}
	if IsFault(errors.New("plain")) {
		t.Error("IsFault(plain error) = true")
	}
}

func TestTypedAccessors(t *testing.T) {
	as := newTestAS(t)
	base := as.RegionByName("heap").Base()

	if err := as.StoreU64(base, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	if v, err := as.LoadU64(base); err != nil || v != 0x1122334455667788 {
		t.Errorf("LoadU64 = %#x, %v", v, err)
	}
	if err := as.StoreU32(base+8, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if v, err := as.LoadU32(base + 8); err != nil || v != 0xdeadbeef {
		t.Errorf("LoadU32 = %#x, %v", v, err)
	}
	if err := as.StoreU8(base+14, 0x5a); err != nil {
		t.Fatal(err)
	}
	if v, err := as.LoadU8(base + 14); err != nil || v != 0x5a {
		t.Errorf("LoadU8 = %#x, %v", v, err)
	}
	if err := as.StoreF64(base+16, 3.14159); err != nil {
		t.Fatal(err)
	}
	if v, err := as.LoadF64(base + 16); err != nil || v != 3.14159 {
		t.Errorf("LoadF64 = %v, %v", v, err)
	}
	// Little-endian layout check.
	if b, err := as.LoadU8(base); err != nil || b != 0x88 {
		t.Errorf("first byte of u64 = %#x, want 0x88 (little endian)", b)
	}
	// Typed accessors on unmapped addresses propagate faults.
	if _, err := as.LoadU64(0x10); !IsFault(err) {
		t.Errorf("LoadU64 unmapped: %v", err)
	}
}

func TestFlipBitVisibleAndMaskedByOverwrite(t *testing.T) {
	as := newTestAS(t)
	addr := as.RegionByName("heap").Base() + 100
	if err := as.StoreU8(addr, 0b0000_0001); err != nil {
		t.Fatal(err)
	}
	if err := as.FlipBit(addr, 3); err != nil {
		t.Fatal(err)
	}
	if v, err := as.LoadU8(addr); err != nil || v != 0b0000_1001 {
		t.Errorf("after flip: %#b, %v", v, err)
	}
	// Overwrite masks the soft error.
	if err := as.StoreU8(addr, 0x42); err != nil {
		t.Fatal(err)
	}
	if v, err := as.LoadU8(addr); err != nil || v != 0x42 {
		t.Errorf("after overwrite: %#x, %v", v, err)
	}
	if err := as.FlipBit(addr, 8); err == nil {
		t.Error("expected error for bit index 8")
	}
	if err := as.FlipBit(0x10, 0); !IsFault(err) {
		t.Errorf("flip at unmapped: %v", err)
	}
}

func TestStickBitSurvivesOverwriteUntilFrameReplace(t *testing.T) {
	as := newTestAS(t)
	heap := as.RegionByName("heap")
	addr := heap.Base() + 10

	if err := as.StickBit(addr, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := as.StoreU8(addr, 0x00); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.LoadU8(addr); v != 0x01 {
		t.Errorf("stuck-at-1 not sensed: %#x", v)
	}
	// Flip the same bit to stuck-at-0.
	if err := as.StickBit(addr, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := as.StoreU8(addr, 0xFF); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.LoadU8(addr); v != 0xFE {
		t.Errorf("stuck-at-0 not sensed: %#x", v)
	}
	// Page retirement replaces the frame and clears the fault.
	if err := heap.ReplaceFrame(heap.PageIndex(addr)); err != nil {
		t.Fatal(err)
	}
	if err := as.StoreU8(addr, 0xFF); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.LoadU8(addr); v != 0xFF {
		t.Errorf("stuck bit survived frame replacement: %#x", v)
	}
	if heap.Replacements(heap.PageIndex(addr)) != 1 {
		t.Error("replacement count not recorded")
	}

	if err := as.StickBit(addr, 9, 1); err == nil {
		t.Error("expected error for bit index 9")
	}
	if err := as.StickBit(addr, 0, 2); err == nil {
		t.Error("expected error for stuck value 2")
	}
	if err := heap.ReplaceFrame(-1); err == nil {
		t.Error("expected error for negative page index")
	}
}

func TestReadWriteRaw(t *testing.T) {
	as := newTestAS(t)
	as2, err := New(Config{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := as2.AddRegion(RegionSpec{Name: "ro", Kind: RegionPrivate, Size: 512, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// WriteRaw bypasses read-only protection (used at setup time).
	if err := as2.WriteRaw(ro.Base(), []byte{1, 2, 3}); err != nil {
		t.Fatalf("WriteRaw to read-only region: %v", err)
	}
	got := make([]byte, 3)
	if err := as2.Load(ro.Base(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("read-only region contents = %v", got)
	}

	// ReadRaw sees stored bytes, not sensed bytes.
	heap := as.RegionByName("heap")
	addr := heap.Base()
	if err := as.StoreU8(addr, 0x00); err != nil {
		t.Fatal(err)
	}
	if err := as.StickBit(addr, 7, 1); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 1)
	if err := as.ReadRaw(addr, raw); err != nil {
		t.Fatal(err)
	}
	if raw[0] != 0x00 {
		t.Errorf("ReadRaw sensed stuck bit: %#x", raw[0])
	}
	if v, _ := as.LoadU8(addr); v != 0x80 {
		t.Errorf("Load did not sense stuck bit: %#x", v)
	}
}

func TestObserversAndClock(t *testing.T) {
	as := newTestAS(t)
	var events []AccessEvent
	as.AddAccessObserver(accessFunc(func(ev AccessEvent) { events = append(events, ev) }))

	heap := as.RegionByName("heap")
	as.Clock().Advance(5 * time.Millisecond)
	if err := as.StoreU8(heap.Base(), 1); err != nil {
		t.Fatal(err)
	}
	as.Clock().Advance(5 * time.Millisecond)
	if _, err := as.LoadU8(heap.Base()); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Kind != Store || events[0].Time != 5*time.Millisecond {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].Kind != Load || events[1].Time != 10*time.Millisecond {
		t.Errorf("event 1 = %+v", events[1])
	}
	if events[0].Region != heap || events[0].Len != 1 {
		t.Errorf("event 0 region/len = %v/%d", events[0].Region.Name(), events[0].Len)
	}
	// Faulting accesses emit no events.
	_ = as.Load(0x10, make([]byte, 1))
	if len(events) != 2 {
		t.Error("faulting access emitted an event")
	}
}

type accessFunc func(AccessEvent)

func (f accessFunc) ObserveAccess(ev AccessEvent) { f(ev) }

func TestClock(t *testing.T) {
	var c Clock
	c.Advance(10)
	c.Advance(-5) // ignored
	if c.Now() != 10 {
		t.Errorf("Now = %d, want 10", c.Now())
	}
	c.Set(5) // ignored, earlier
	c.Set(20)
	if c.Now() != 20 {
		t.Errorf("Now = %d, want 20", c.Now())
	}
}

func TestArena(t *testing.T) {
	as := newTestAS(t)
	heap := as.RegionByName("heap")
	a := NewArena(heap)

	p1, err := a.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("overlapping allocations")
	}
	if uint64(p2-p1)%allocAlign != 0 {
		t.Error("allocation not aligned")
	}
	if heap.Used() < 20 {
		t.Errorf("Used = %d, want >= 20", heap.Used())
	}
	if _, err := a.Alloc(0); err == nil {
		t.Error("zero-size alloc not rejected")
	}
	if _, err := a.Alloc(heap.Size() * 2); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("oversized alloc: %v", err)
	}
}

func TestArenaExhaustion(t *testing.T) {
	as := newTestAS(t)
	a := NewArena(as.RegionByName("stack")) // 1024 bytes
	var got []Addr
	for {
		p, err := a.Alloc(64)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		got = append(got, p)
	}
	if len(got) != 1024/64 {
		t.Errorf("allocated %d blocks, want %d", len(got), 1024/64)
	}
}

func TestStack(t *testing.T) {
	as := newTestAS(t)
	s := NewStack(as.RegionByName("stack"))

	f1, err := s.Push(100)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.Push(50)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Base <= f1.Base {
		t.Error("stack did not grow")
	}
	if err := s.Pop(f1); err == nil {
		t.Error("pop of non-top frame not rejected")
	}
	if err := s.Pop(f2); err != nil {
		t.Fatal(err)
	}
	if err := s.Pop(f1); err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 0 {
		t.Errorf("Depth = %d, want 0", s.Depth())
	}
	// Used reflects the high-water mark even after popping.
	if u := s.Region().Used(); u < 150 {
		t.Errorf("Used = %d, want >= 150", u)
	}
	if _, err := s.Push(0); err == nil {
		t.Error("zero-size frame not rejected")
	}
	if _, err := s.Push(4096); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("overflow: %v", err)
	}
}

func TestSampleAddr(t *testing.T) {
	as := newTestAS(t)
	rng := rand.New(rand.NewSource(1))

	// No used bytes anywhere: sampling fails.
	if _, ok := as.SampleAddr(rng, nil); ok {
		t.Error("sampling succeeded with no used bytes")
	}

	as.RegionByName("private").SetUsed(3000)
	as.RegionByName("heap").SetUsed(1000)

	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		addr, ok := as.SampleAddr(rng, nil)
		if !ok {
			t.Fatal("sampling failed")
		}
		r := as.findRegion(addr)
		if r == nil {
			t.Fatalf("sampled unmapped address %#x", uint64(addr))
		}
		if int(addr-r.Base()) >= r.Used() {
			t.Fatalf("sampled beyond used bytes in %q", r.Name())
		}
		counts[r.Name()]++
	}
	if counts["stack"] != 0 {
		t.Error("sampled stack region with zero used bytes")
	}
	// private:heap should be roughly 3:1.
	ratio := float64(counts["private"]) / float64(counts["heap"])
	if ratio < 2.2 || ratio > 4.0 {
		t.Errorf("sampling ratio = %.2f, want about 3", ratio)
	}

	// Filtered sampling.
	for i := 0; i < 100; i++ {
		addr, ok := as.SampleAddr(rng, func(r *Region) bool { return r.Kind() == RegionHeap })
		if !ok {
			t.Fatal("filtered sampling failed")
		}
		if !as.RegionByName("heap").Contains(addr) {
			t.Fatalf("filtered sample outside heap: %#x", uint64(addr))
		}
	}
}

func TestSetUsedClamps(t *testing.T) {
	as := newTestAS(t)
	r := as.RegionByName("heap")
	r.SetUsed(-5)
	if r.Used() != 0 {
		t.Error("negative used not clamped")
	}
	r.SetUsed(1 << 30)
	if r.Used() != r.Size() {
		t.Error("oversized used not clamped")
	}
}

func TestBackingFlushAndRestore(t *testing.T) {
	as := newTestAS(t)
	priv := as.RegionByName("private")
	addr := priv.Base() + 100

	if err := as.Store(addr, []byte{9, 8, 7}); err != nil {
		t.Fatal(err)
	}
	// Before any flush the backing store is stale (zeros).
	b, err := priv.BackingBytes(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, []byte{0, 0, 0}) {
		t.Errorf("backing before flush = %v", b)
	}
	if err := priv.FlushAll(); err != nil {
		t.Fatal(err)
	}
	b, err = priv.BackingBytes(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, []byte{9, 8, 7}) {
		t.Errorf("backing after flush = %v", b)
	}

	// Corrupt memory, then restore the clean copy from backing.
	if err := as.FlipBit(addr, 0); err != nil {
		t.Fatal(err)
	}
	if err := priv.RestoreWord(addr); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.LoadU8(addr); v != 9 {
		t.Errorf("after restore = %d, want 9", v)
	}

	// Regions without backing reject these operations.
	heap := as.RegionByName("heap")
	if err := heap.FlushAll(); err == nil {
		t.Error("FlushAll without backing not rejected")
	}
	if err := heap.RestoreWord(heap.Base()); err == nil {
		t.Error("RestoreWord without backing not rejected")
	}
	if _, err := heap.BackingBytes(heap.Base(), 1); err == nil {
		t.Error("BackingBytes without backing not rejected")
	}
}

func TestReplaceFrameRestoresFromBacking(t *testing.T) {
	as := newTestAS(t)
	priv := as.RegionByName("private")
	addr := priv.Base() + 5
	if err := as.Store(addr, []byte{42}); err != nil {
		t.Fatal(err)
	}
	if err := priv.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := as.StickBit(addr, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := priv.ReplaceFrame(priv.PageIndex(addr)); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.LoadU8(addr); v != 42 {
		t.Errorf("after retire+restore = %d, want 42", v)
	}
}

func TestRegionKindString(t *testing.T) {
	tests := []struct {
		k    RegionKind
		want string
	}{
		{RegionPrivate, "private"},
		{RegionHeap, "heap"},
		{RegionStack, "stack"},
		{RegionOther, "other"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.k), got, tt.want)
		}
	}
	if AccessKind(Load).String() != "load" || AccessKind(Store).String() != "store" {
		t.Error("AccessKind strings wrong")
	}
	if VerdictClean.String() != "clean" || VerdictCorrected.String() != "corrected" ||
		VerdictUncorrectable.String() != "uncorrectable" {
		t.Error("Verdict strings wrong")
	}
}

// TestShadowModelProperty runs a random sequence of stores and loads
// against both the simulator and a plain byte-slice shadow model; with no
// injected errors they must always agree.
func TestShadowModelProperty(t *testing.T) {
	as := newTestAS(t)
	heap := as.RegionByName("heap")
	shadow := make([]byte, heap.Size())
	rng := rand.New(rand.NewSource(99))

	for i := 0; i < 5000; i++ {
		off := rng.Intn(heap.Size() - 64)
		n := rng.Intn(64) + 1
		addr := heap.Base() + Addr(off)
		if rng.Intn(2) == 0 {
			data := make([]byte, n)
			rng.Read(data)
			if err := as.Store(addr, data); err != nil {
				t.Fatalf("store %d: %v", i, err)
			}
			copy(shadow[off:], data)
		} else {
			got := make([]byte, n)
			if err := as.Load(addr, got); err != nil {
				t.Fatalf("load %d: %v", i, err)
			}
			if !bytes.Equal(got, shadow[off:off+n]) {
				t.Fatalf("divergence at op %d, offset %d", i, off)
			}
		}
	}
}
