package simmem

import (
	"bytes"
	"testing"
	"time"
)

// snapSpace builds a two-region space (one protected+backed, one plain)
// with recognizable contents.
func snapSpace(t *testing.T) (*AddressSpace, *Region, *Region) {
	t.Helper()
	as, err := New(Config{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := as.AddRegion(RegionSpec{
		Name: "prot", Kind: RegionPrivate, Size: 1024, Backed: true, Codec: replicaCodec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := as.AddRegion(RegionSpec{Name: "plain", Kind: RegionHeap, Size: 1024})
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]byte, 1024)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	if err := as.WriteRaw(prot.Base(), seed); err != nil {
		t.Fatal(err)
	}
	if err := prot.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteRaw(plain.Base(), seed); err != nil {
		t.Fatal(err)
	}
	prot.SetUsed(1024)
	plain.SetUsed(1024)
	return as, prot, plain
}

// rawBytes reads a region's full stored contents.
func rawBytes(t *testing.T, as *AddressSpace, r *Region) []byte {
	t.Helper()
	buf := make([]byte, r.Size())
	if err := as.ReadRaw(r.Base(), buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestSnapshotRestoreRollsBackMutations(t *testing.T) {
	as, prot, plain := snapSpace(t)
	wantProt := rawBytes(t, as, prot)
	wantPlain := rawBytes(t, as, plain)
	wantCounters := as.Counters()
	as.Clock().Advance(time.Minute)
	wantClock := as.Clock().Now()

	snap := as.Snapshot()
	if n := snap.DirtyPages(); n != 0 {
		t.Fatalf("fresh snapshot has %d dirty pages", n)
	}

	// Mutate through every major path.
	if err := as.Store(plain.Base()+3, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	if err := as.FlipBit(prot.Base()+100, 3); err != nil {
		t.Fatal(err)
	}
	if err := as.FlipCheckBit(prot.Base()+512, 1); err != nil {
		t.Fatal(err)
	}
	if err := as.StickBit(plain.Base()+700, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteRaw(prot.Base()+256, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := prot.FlushPage(1); err != nil {
		t.Fatal(err)
	}
	as.Clock().Advance(time.Hour)
	var scratch [8]byte
	if err := as.Load(plain.Base(), scratch[:]); err != nil {
		t.Fatal(err)
	}

	if snap.DirtyPages() == 0 {
		t.Fatal("mutations left no dirty pages")
	}
	restored, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if restored == 0 {
		t.Fatal("restore touched no pages")
	}
	if got := rawBytes(t, as, prot); !bytes.Equal(got, wantProt) {
		t.Error("protected region bytes not restored")
	}
	if got := rawBytes(t, as, plain); !bytes.Equal(got, wantPlain) {
		t.Error("plain region bytes not restored")
	}
	if got := as.Clock().Now(); got != wantClock {
		t.Errorf("clock = %v, want %v", got, wantClock)
	}
	if got := as.Counters(); got != wantCounters {
		t.Errorf("counters = %+v, want %+v", got, wantCounters)
	}
	// The backing store was restored too.
	clean, err := prot.BackingBytes(prot.Base()+256, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, wantProt[256:512]) {
		t.Error("backing store not restored")
	}
	// Stuck-at faults were cleared: the stuck byte reads its stored value.
	var b [1]byte
	if err := as.Load(plain.Base()+700, b[:]); err != nil {
		t.Fatal(err)
	}
	if b[0] != wantPlain[700] {
		t.Errorf("stuck bit survived restore: %#x != %#x", b[0], wantPlain[700])
	}
	// A second restore with nothing dirty is a cheap no-op.
	n, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("idle restore touched %d pages", n)
	}
}

func TestSnapshotRestoreLoadsMatchFreshBuild(t *testing.T) {
	// After restore, a protected load of a previously corrupted word
	// decodes cleanly with no new corrections.
	as, prot, _ := snapSpace(t)
	snap := as.Snapshot()
	if err := as.FlipBit(prot.Base()+40, 1); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	if err := as.Load(prot.Base()+40, buf[:]); err != nil {
		t.Fatal(err)
	}
	if as.Counters().Corrected == 0 {
		t.Fatal("flip was not corrected (test setup broken)")
	}
	if _, err := snap.Restore(); err != nil {
		t.Fatal(err)
	}
	if err := as.Load(prot.Base()+40, buf[:]); err != nil {
		t.Fatal(err)
	}
	c := as.Counters()
	if c.Corrected != 0 {
		t.Errorf("restored word still corrects: %d", c.Corrected)
	}
	if c.Loads != 1 {
		t.Errorf("loads = %d after restore+1 load, want 1", c.Loads)
	}
	if got := prot.CorrectedOnPage(0); got != 0 {
		t.Errorf("page corrected counter = %d after restore", got)
	}
}

func TestSnapshotTruncatesObserversAndResetsTrialState(t *testing.T) {
	as, _, plain := snapSpace(t)
	retained := &resettingObserver{}
	as.AddAccessObserver(retained)
	snap := as.Snapshot()
	perTrial := &resettingObserver{}
	as.AddAccessObserver(perTrial)

	var buf [1]byte
	if err := as.Load(plain.Base(), buf[:]); err != nil {
		t.Fatal(err)
	}
	if retained.events != 1 || perTrial.events != 1 {
		t.Fatalf("observer events = %d/%d, want 1/1", retained.events, perTrial.events)
	}
	if _, err := snap.Restore(); err != nil {
		t.Fatal(err)
	}
	if retained.resets != 1 {
		t.Errorf("retained observer resets = %d, want 1", retained.resets)
	}
	if err := as.Load(plain.Base(), buf[:]); err != nil {
		t.Fatal(err)
	}
	if perTrial.events != 1 {
		t.Error("per-trial observer still registered after restore")
	}
	if retained.events != 2 {
		t.Errorf("retained observer events = %d, want 2", retained.events)
	}
}

type resettingObserver struct {
	events int
	resets int
}

func (o *resettingObserver) ObserveAccess(AccessEvent) { o.events++ }
func (o *resettingObserver) ResetTrial()               { o.resets++ }

func TestSnapshotSupersededRestoreFails(t *testing.T) {
	as, _, _ := snapSpace(t)
	old := as.Snapshot()
	as.Snapshot()
	if _, err := old.Restore(); err == nil {
		t.Fatal("restore of superseded snapshot succeeded")
	}
}

func TestSnapshotRejectsRegionCountChange(t *testing.T) {
	as, _, _ := snapSpace(t)
	snap := as.Snapshot()
	if _, err := as.AddRegion(RegionSpec{Name: "late", Kind: RegionOther, Size: 256}); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Restore(); err == nil {
		t.Fatal("restore succeeded after region-count change")
	}
}

func TestArenaMarkRewind(t *testing.T) {
	as, err := New(Config{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	r, err := as.AddRegion(RegionSpec{Name: "heap", Kind: RegionHeap, Size: 4096})
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena(r)
	first, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	mark := a.Mark()
	markUsed := r.Used()

	// Disturb the allocator, then rewind: the next block lands where the
	// discarded one did, right after the block allocated before the mark.
	second, err := a.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if second != first+64 {
		t.Fatalf("second block at %#x, want %#x", uint64(second), uint64(first+64))
	}
	a.Rewind(mark)
	r.SetUsed(markUsed)
	got, err := a.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if got != second {
		t.Errorf("alloc after rewind = %#x, want %#x", uint64(got), uint64(second))
	}
	// Rewinding twice from the same mark works.
	a.Rewind(mark)
	if got, err := a.Alloc(16); err != nil || got != second {
		t.Errorf("alloc after second rewind = %#x (%v), want %#x", uint64(got), err, uint64(second))
	}
}

func TestStackRewind(t *testing.T) {
	as, err := New(Config{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	r, err := as.AddRegion(RegionSpec{Name: "stack", Kind: RegionStack, Size: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStack(r)
	if _, err := s.Push(32); err != nil {
		t.Fatal(err)
	}
	depth := s.Depth()
	if _, err := s.Push(64); err != nil {
		t.Fatal(err)
	}
	if err := s.Rewind(depth); err != nil {
		t.Fatal(err)
	}
	if s.Depth() != depth {
		t.Errorf("depth = %d, want %d", s.Depth(), depth)
	}
	if err := s.Rewind(-1); err == nil {
		t.Error("negative rewind accepted")
	}
	if err := s.Rewind(r.Size() + 1); err == nil {
		t.Error("oversized rewind accepted")
	}
}
