package simmem

import (
	"errors"
	"testing"
)

// replicaCodec is a test-only correcting codec: the check storage holds a
// full copy of the 8-byte word plus a parity byte over the data. Decode
// trusts whichever side's parity is consistent.
type replicaCodec struct{}

func (replicaCodec) Name() string    { return "test-replica" }
func (replicaCodec) WordBytes() int  { return 8 }
func (replicaCodec) CheckBytes() int { return 9 }
func (replicaCodec) CheckBits() int  { return 72 }

func xorAll(b []byte) byte {
	var x byte
	for _, v := range b {
		x ^= v
	}
	return x
}

func (replicaCodec) Encode(data, check []byte) {
	copy(check[:8], data)
	check[8] = xorAll(data)
}

func (replicaCodec) Decode(data, check []byte) Verdict {
	dataOK := xorAll(data) == check[8]
	copyOK := xorAll(check[:8]) == check[8]
	same := true
	for i := 0; i < 8; i++ {
		if data[i] != check[i] {
			same = false
			break
		}
	}
	switch {
	case dataOK && same:
		return VerdictClean
	case dataOK: // copy corrupted; repair it
		copy(check[:8], data)
		return VerdictCorrected
	case copyOK: // data corrupted; repair from copy
		copy(data, check[:8])
		return VerdictCorrected
	default:
		return VerdictUncorrectable
	}
}

// parityOnlyCodec detects any odd number of flipped bits per word but
// cannot correct (like the paper's Parity row in Table 1).
type parityOnlyCodec struct{}

func (parityOnlyCodec) Name() string    { return "test-parity" }
func (parityOnlyCodec) WordBytes() int  { return 8 }
func (parityOnlyCodec) CheckBytes() int { return 1 }
func (parityOnlyCodec) CheckBits() int  { return 1 }

func (parityOnlyCodec) Encode(data, check []byte) {
	var bits int
	for _, b := range data {
		for ; b != 0; b &= b - 1 {
			bits++
		}
	}
	check[0] = byte(bits & 1)
}

func (parityOnlyCodec) Decode(data, check []byte) Verdict {
	var scratch [1]byte
	parityOnlyCodec{}.Encode(data, scratch[:])
	if scratch[0]&1 == check[0]&1 {
		return VerdictClean
	}
	return VerdictUncorrectable
}

func newProtectedAS(t *testing.T, codec Codec, mc MCHandler) (*AddressSpace, *Region) {
	t.Helper()
	as, err := New(Config{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	r, err := as.AddRegion(RegionSpec{
		Name: "prot", Kind: RegionHeap, Size: 1024, Backed: true, Codec: codec, MC: mc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return as, r
}

func TestProtectedRoundtrip(t *testing.T) {
	as, r := newProtectedAS(t, replicaCodec{}, nil)
	addr := r.Base() + 16
	if err := as.StoreU64(addr, 12345); err != nil {
		t.Fatal(err)
	}
	if v, err := as.LoadU64(addr); err != nil || v != 12345 {
		t.Fatalf("roundtrip = %d, %v", v, err)
	}
	if c := as.Counters(); c.Corrected != 0 || c.Uncorrectable != 0 {
		t.Errorf("spurious ECC events: %+v", c)
	}
}

func TestProtectedCorrection(t *testing.T) {
	as, r := newProtectedAS(t, replicaCodec{}, nil)
	addr := r.Base() + 32
	if err := as.StoreU64(addr, 0xABCDEF); err != nil {
		t.Fatal(err)
	}
	if err := as.FlipBit(addr, 3); err != nil {
		t.Fatal(err)
	}
	v, err := as.LoadU64(addr)
	if err != nil {
		t.Fatalf("Load after single flip: %v", err)
	}
	if v != 0xABCDEF {
		t.Errorf("corrected value = %#x, want 0xABCDEF", v)
	}
	c := as.Counters()
	if c.Corrected != 1 {
		t.Errorf("Corrected = %d, want 1", c.Corrected)
	}
	if r.CorrectedOnPage(r.PageIndex(addr)) != 1 {
		t.Error("page corrected counter not incremented")
	}
	// Without scrubbing, the stored error persists and is corrected
	// again on the next load.
	if _, err := as.LoadU64(addr); err != nil {
		t.Fatal(err)
	}
	if c := as.Counters(); c.Corrected != 2 {
		t.Errorf("Corrected after second load = %d, want 2", c.Corrected)
	}
}

func TestUncorrectableCrashesWithoutHandler(t *testing.T) {
	as, r := newProtectedAS(t, parityOnlyCodec{}, nil)
	addr := r.Base() + 8
	if err := as.StoreU64(addr, 99); err != nil {
		t.Fatal(err)
	}
	if err := as.FlipBit(addr, 5); err != nil {
		t.Fatal(err)
	}
	_, err := as.LoadU64(addr)
	f, ok := AsFault(err)
	if !ok || f.Kind != FaultMachineCheck {
		t.Fatalf("err = %v, want machine-check fault", err)
	}
	if c := as.Counters(); c.Uncorrectable != 1 {
		t.Errorf("Uncorrectable = %d, want 1", c.Uncorrectable)
	}
}

func TestUncorrectableRecoveredByHandler(t *testing.T) {
	var handled int
	handler := MCHandlerFunc(func(as *AddressSpace, ev MCEvent) MCAction {
		handled++
		if err := ev.Region.RestoreWord(ev.Addr); err != nil {
			return MCCrash
		}
		return MCRecovered
	})
	as, r := newProtectedAS(t, parityOnlyCodec{}, handler)
	addr := r.Base() + 8
	if err := as.StoreU64(addr, 4242); err != nil {
		t.Fatal(err)
	}
	if err := r.FlushAll(); err != nil { // checkpoint the clean copy
		t.Fatal(err)
	}
	if err := as.FlipBit(addr, 5); err != nil {
		t.Fatal(err)
	}
	v, err := as.LoadU64(addr)
	if err != nil {
		t.Fatalf("Load with recovery handler: %v", err)
	}
	if v != 4242 {
		t.Errorf("recovered value = %d, want 4242", v)
	}
	if handled != 1 {
		t.Errorf("handler calls = %d, want 1", handled)
	}
	if c := as.Counters(); c.Recovered != 1 {
		t.Errorf("Recovered = %d, want 1", c.Recovered)
	}
}

func TestUncorrectableHandlerFailsToRepair(t *testing.T) {
	// A handler that claims recovery but repairs nothing: the retried
	// decode still fails and the load faults.
	handler := MCHandlerFunc(func(as *AddressSpace, ev MCEvent) MCAction {
		return MCRecovered
	})
	as, r := newProtectedAS(t, parityOnlyCodec{}, handler)
	addr := r.Base()
	if err := as.StoreU64(addr, 1); err != nil {
		t.Fatal(err)
	}
	if err := as.FlipBit(addr, 0); err != nil {
		t.Fatal(err)
	}
	_, err := as.LoadU64(addr)
	f, ok := AsFault(err)
	if !ok || f.Kind != FaultMachineCheck {
		t.Fatalf("err = %v, want machine-check fault", err)
	}
}

func TestCheckBitCorruption(t *testing.T) {
	as, r := newProtectedAS(t, replicaCodec{}, nil)
	addr := r.Base() + 64
	if err := as.StoreU64(addr, 0x1111); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored copy (check bytes): data still decodes, the
	// codec repairs its replica, and the value is unchanged.
	if err := as.FlipCheckBit(addr, 2); err != nil {
		t.Fatal(err)
	}
	v, err := as.LoadU64(addr)
	if err != nil || v != 0x1111 {
		t.Fatalf("load after check corruption = %#x, %v", v, err)
	}
	if c := as.Counters(); c.Corrected != 1 {
		t.Errorf("Corrected = %d, want 1", c.Corrected)
	}

	if err := as.FlipCheckBit(addr, 100); err == nil {
		t.Error("out-of-range check bit accepted")
	}
	// Unprotected regions have no check storage.
	plain := newTestAS(t)
	if err := plain.FlipCheckBit(plain.RegionByName("heap").Base(), 0); err == nil {
		t.Error("FlipCheckBit on unprotected region accepted")
	}
}

func TestPartialStoreReadModifyWrite(t *testing.T) {
	as, r := newProtectedAS(t, replicaCodec{}, nil)
	addr := r.Base() + 16
	if err := as.StoreU64(addr, 0xFFFFFFFFFFFFFFFF); err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte the partial store will NOT touch; the RMW decode
	// must correct it rather than folding it into a new codeword.
	if err := as.FlipBit(addr+7, 2); err != nil {
		t.Fatal(err)
	}
	if err := as.StoreU8(addr, 0x00); err != nil {
		t.Fatal(err)
	}
	v, err := as.LoadU64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xFFFFFFFFFFFFFF00 {
		t.Errorf("after RMW = %#x, want 0xFFFFFFFFFFFFFF00", v)
	}
	if c := as.Counters(); c.Corrected != 1 {
		t.Errorf("Corrected = %d, want 1 (RMW decode)", c.Corrected)
	}
}

func TestPartialStoreUncorrectableFaults(t *testing.T) {
	as, r := newProtectedAS(t, parityOnlyCodec{}, nil)
	addr := r.Base() + 16
	if err := as.StoreU64(addr, 0); err != nil {
		t.Fatal(err)
	}
	if err := as.FlipBit(addr+7, 0); err != nil {
		t.Fatal(err)
	}
	err := as.StoreU8(addr, 1)
	f, ok := AsFault(err)
	if !ok || f.Kind != FaultMachineCheck {
		t.Fatalf("partial store over uncorrectable error: %v, want machine check", err)
	}
	// A full-word store overwrites the error without decoding: masked.
	if err := as.StoreU64(addr, 5); err != nil {
		t.Fatalf("full-word store: %v", err)
	}
	if v, err := as.LoadU64(addr); err != nil || v != 5 {
		t.Errorf("after overwrite = %d, %v", v, err)
	}
}

func TestECCObserverSeesEvents(t *testing.T) {
	as, r := newProtectedAS(t, replicaCodec{}, nil)
	var events []ECCEvent
	as.AddECCObserver(eccFunc(func(ev ECCEvent) { events = append(events, ev) }))
	addr := r.Base()
	if err := as.StoreU64(addr, 3); err != nil {
		t.Fatal(err)
	}
	if err := as.FlipBit(addr, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := as.LoadU64(addr); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != ECCCorrected || events[0].Addr != addr {
		t.Errorf("events = %+v", events)
	}
}

type eccFunc func(ECCEvent)

func (f eccFunc) ObserveECC(ev ECCEvent) { f(ev) }

func TestWriteRawReencodesCheckStorage(t *testing.T) {
	as, r := newProtectedAS(t, replicaCodec{}, nil)
	addr := r.Base() + 24
	// Unaligned raw write into a protected region must leave valid
	// codewords behind.
	if err := as.WriteRaw(addr+3, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if err := as.Load(addr+3, buf); err != nil {
		t.Fatalf("load after WriteRaw: %v", err)
	}
	for i, b := range buf {
		if b != byte(i+1) {
			t.Fatalf("byte %d = %d, want %d", i, b, i+1)
		}
	}
	if c := as.Counters(); c.Corrected != 0 || c.Uncorrectable != 0 {
		t.Errorf("WriteRaw left inconsistent codewords: %+v", c)
	}
}

func TestReplaceFrameReencodesProtectedPages(t *testing.T) {
	as, r := newProtectedAS(t, parityOnlyCodec{}, nil)
	addr := r.Base() + 8
	if err := as.StoreU64(addr, 123); err != nil {
		t.Fatal(err)
	}
	if err := r.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := as.FlipBit(addr, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.ReplaceFrame(r.PageIndex(addr)); err != nil {
		t.Fatal(err)
	}
	v, err := as.LoadU64(addr)
	if err != nil {
		t.Fatalf("load after frame replace: %v", err)
	}
	if v != 123 {
		t.Errorf("restored value = %d, want 123", v)
	}
}

func TestAddRegionCodecValidation(t *testing.T) {
	as, err := New(Config{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	_, err = as.AddRegion(RegionSpec{Name: "bad", Size: 256, Codec: oddWordCodec{}})
	if err == nil {
		t.Error("codec with word size not dividing page size accepted")
	}
}

type oddWordCodec struct{ replicaCodec }

func (oddWordCodec) WordBytes() int { return 24 } // does not divide 256

func TestErrOutOfMemorySentinel(t *testing.T) {
	if !errors.Is(ErrOutOfMemory, ErrOutOfMemory) {
		t.Error("sentinel identity broken")
	}
}
