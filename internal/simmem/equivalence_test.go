// Differential equivalence suite for the clean-page fast path: every
// test here drives two address spaces — one with the fast path on, one
// forced through the reference slow path — with an identical operation
// stream, and requires them to be indistinguishable: same load results,
// same errors, same counters, same ECC/access event sequences, same
// stored bytes, same taint state. This is the contract that makes the
// fast path a pure optimization.
package simmem_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hrmsim/internal/ecc"
	"hrmsim/internal/simmem"
)

// eqCodecs enumerates the protection techniques under differential test,
// plus the unprotected baseline.
func eqCodecs() []struct {
	name  string
	codec func() simmem.Codec
} {
	return []struct {
		name  string
		codec func() simmem.Codec
	}{
		{"noecc", func() simmem.Codec { return nil }},
		{"parity", func() simmem.Codec { return ecc.NewParity() }},
		{"secded", func() simmem.Codec { return ecc.NewSECDED() }},
		{"dected", func() simmem.Codec { return ecc.NewDECTED() }},
		{"chipkill", func() simmem.Codec { return ecc.NewChipkill() }},
		{"mirror", func() simmem.Codec { return ecc.NewMirror() }},
	}
}

// eqLog records the observable event stream of one space.
type eqLog struct {
	entries []string
}

func (l *eqLog) ObserveAccess(ev simmem.AccessEvent) {
	l.entries = append(l.entries, fmt.Sprintf("access:%v:%#x+%d@%d", ev.Kind, ev.Addr, ev.Len, ev.Time))
}

func (l *eqLog) ObserveECC(ev simmem.ECCEvent) {
	l.entries = append(l.entries, fmt.Sprintf("ecc:%d:%#x@%d", ev.Kind, ev.Addr, ev.Time))
}

// eqSpace is one side of a differential pair. Typed ops go through acc,
// a second accessor, so its one-entry region cache moves independently
// of the space's own.
type eqSpace struct {
	as   *simmem.AddressSpace
	acc  *simmem.Accessor
	log  *eqLog
	snap *simmem.Snapshot
}

// newEqSpace builds one side: a backed protected region, an unbacked
// protected region, and an unprotected region, matching the application
// layout (private/heap/stack).
func newEqSpace(t *testing.T, codec simmem.Codec, fast bool) *eqSpace {
	t.Helper()
	as, err := simmem.New(simmem.Config{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	as.SetFastPath(fast)
	specs := []simmem.RegionSpec{
		{Name: "private", Kind: simmem.RegionPrivate, Size: 1024, Backed: true, Codec: codec},
		{Name: "heap", Kind: simmem.RegionHeap, Size: 1024, Codec: codec},
		{Name: "stack", Kind: simmem.RegionStack, Size: 512},
	}
	for _, s := range specs {
		if _, err := as.AddRegion(s); err != nil {
			t.Fatal(err)
		}
	}
	l := &eqLog{}
	as.AddAccessObserver(l)
	as.AddECCObserver(l)
	return &eqSpace{as: as, acc: as.NewAccessor(), log: l}
}

// errString renders an error for comparison ("" for nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// eqOp is one step of a differential operation stream. Streams are a pure
// function of the region layout and a seed, so any number of memories —
// fast, slow, or the naive oracle in oracle_test.go — replay the same one.
type eqOp struct {
	kind   eqOpKind
	ri, pi int // region and page index (page-granular ops)
	addr   simmem.Addr
	data   []byte // store payload; for loads only its length matters
	bit    int
	val    int  // stuck-at value
	wb     bool // scrub write-back
	float  bool // typed 8-byte op through LoadF64/StoreF64
}

type eqOpKind int

const (
	opLoad eqOpKind = iota
	opStore
	opFlipBit
	opFlipCheckBit
	opStickBit
	opScrubPage
	opReplaceFrame
	opFlushPage
	opRestoreWord
	opSnapshot
	opRestore
	// Typed 1/4/8-byte loads and stores through the second accessor;
	// data holds the width (and a store's little-endian value).
	opTypedLoad
	opTypedStore
)

// eqResult is everything one op lets its caller observe. restored is the
// page count Restore reports: dirty-page tracking must agree between the
// fast and slow paths, but a memory without tracking cannot supply it.
type eqResult struct {
	out      string
	restored int
}

// genOps draws nOps pseudo-random operations from seed over the layout.
func genOps(regions []*simmem.Region, seed int64, nOps int) []eqOp {
	rng := rand.New(rand.NewSource(seed))
	pickSpan := func() (simmem.Addr, int) {
		r := regions[rng.Intn(len(regions))]
		n := 1 + rng.Intn(48)
		off := rng.Intn(r.Size() - n)
		return r.Base() + simmem.Addr(off), n
	}
	snapped := false
	var ops []eqOp
	for len(ops) < nOps {
		switch rng.Intn(20) {
		case 0, 1, 2, 3, 4, 5, 6:
			addr, n := pickSpan()
			ops = append(ops, eqOp{kind: opLoad, addr: addr, data: make([]byte, n)})
		case 7, 8, 9, 10, 11, 12:
			addr, n := pickSpan()
			data := make([]byte, n)
			rng.Read(data)
			ops = append(ops, eqOp{kind: opStore, addr: addr, data: data})
		case 13: // soft error
			addr, _ := pickSpan()
			ops = append(ops, eqOp{kind: opFlipBit, addr: addr, bit: rng.Intn(8)})
		case 14: // soft error in check storage; protected regions only
			r := regions[rng.Intn(2)]
			if r.Codec() == nil {
				nOps--
				continue
			}
			addr := r.Base() + simmem.Addr(rng.Intn(r.Size()))
			ops = append(ops, eqOp{kind: opFlipCheckBit, addr: addr, bit: rng.Intn(r.Codec().CheckBytes() * 8)})
		case 15: // hard error
			addr, _ := pickSpan()
			bit, val := rng.Intn(8), rng.Intn(2)
			ops = append(ops, eqOp{kind: opStickBit, addr: addr, bit: bit, val: val})
		case 16:
			ri := rng.Intn(len(regions))
			pi := rng.Intn(regions[ri].PageCount())
			ops = append(ops, eqOp{kind: opScrubPage, ri: ri, pi: pi, wb: rng.Intn(2) == 0})
		case 17: // repair operations on the backed region
			r := regions[0]
			op := eqOp{pi: rng.Intn(r.PageCount())}
			switch rng.Intn(3) {
			case 0:
				op.kind = opReplaceFrame
			case 1:
				op.kind = opFlushPage
			case 2:
				op.kind = opRestoreWord
				op.addr = r.Base() + simmem.Addr(rng.Intn(r.Size()))
			}
			ops = append(ops, op)
		case 18:
			snapped = true
			ops = append(ops, eqOp{kind: opSnapshot})
		case 19:
			if !snapped {
				nOps--
				continue
			}
			ops = append(ops, eqOp{kind: opRestore})
		}
	}
	return ops
}

// genCrossPageOps is the partial-taint scenario: fill two pages, corrupt
// one word adjacent to the page boundary, then stream span reads sliding
// across that boundary — the exact shape where the single-page fast path,
// the multi-page bulk path, and the per-word walk over a
// partially-tainted page all meet.
func genCrossPageOps(regions []*simmem.Region, seed int64) []eqOp {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	r := regions[int(seed&1)] // private (backed) or heap
	const ps = 256            // page size used by newEqSpace
	data := make([]byte, 2*ps)
	rng.Read(data)
	ops := []eqOp{{kind: opStore, addr: r.Base(), data: data}}
	// The last word of page 0.
	addr := r.Base() + simmem.Addr(ps-8+rng.Intn(8))
	ops = append(ops, eqOp{kind: opFlipBit, addr: addr, bit: rng.Intn(8)})
	for off := ps - 64; off <= ps+64; off += 16 {
		ops = append(ops, eqOp{kind: opLoad, addr: r.Base() + simmem.Addr(off), data: make([]byte, 48)})
	}
	return ops
}

// withTypedOps interleaves typed loads and stores into ops, drawn from a
// generator of their own so the ops genOps draws for a seed are
// unchanged. Each typed op either stays in the region of the previous
// one or moves to another, so the second accessor's cached region keeps
// changing, and one in eight goes to a wild address: below a region's
// base, one past its end, straddling its last bytes, or near 2^64.
func withTypedOps(regions []*simmem.Region, seed int64, ops []eqOp) []eqOp {
	rng := rand.New(rand.NewSource(seed ^ 0x7e9ed))
	out := make([]eqOp, 0, len(ops)*5/4)
	ri := 0
	for _, op := range ops {
		out = append(out, op)
		if rng.Intn(4) != 0 {
			continue
		}
		if rng.Intn(2) == 0 {
			ri = rng.Intn(len(regions))
		}
		r := regions[ri]
		n := []int{1, 4, 8}[rng.Intn(3)]
		addr := r.Base() + simmem.Addr(rng.Intn(r.Size()-n+1))
		if rng.Intn(8) == 0 {
			end := r.Base() + simmem.Addr(r.Size())
			addr = []simmem.Addr{
				r.Base() - 1 - simmem.Addr(rng.Intn(16)),
				end,
				end - simmem.Addr(1+rng.Intn(7)),
				^simmem.Addr(0) - simmem.Addr(rng.Intn(16)),
			}[rng.Intn(4)]
		}
		typed := eqOp{kind: opTypedLoad, addr: addr, data: make([]byte, n), float: n == 8 && rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			typed.kind = opTypedStore
			rng.Read(typed.data)
		}
		out = append(out, typed)
	}
	return out
}

// typedLoad and typedStore run a typed op of len(op.data) bytes through
// acc; the load renders the value zero-extended to 64 bits.
func typedLoad(acc *simmem.Accessor, op eqOp) (uint64, error) {
	switch len(op.data) {
	case 1:
		v, err := acc.LoadU8(op.addr)
		return uint64(v), err
	case 4:
		v, err := acc.LoadU32(op.addr)
		return uint64(v), err
	}
	if op.float {
		v, err := acc.LoadF64(op.addr)
		return math.Float64bits(v), err
	}
	return acc.LoadU64(op.addr)
}

func typedStore(acc *simmem.Accessor, op eqOp) error {
	var b [8]byte
	copy(b[:], op.data)
	v := binary.LittleEndian.Uint64(b[:])
	switch len(op.data) {
	case 1:
		return acc.StoreU8(op.addr, byte(v))
	case 4:
		return acc.StoreU32(op.addr, uint32(v))
	}
	if op.float {
		return acc.StoreF64(op.addr, math.Float64frombits(v))
	}
	return acc.StoreU64(op.addr, v)
}

// apply runs one op against the space and renders what it observed.
func (s *eqSpace) apply(op eqOp) eqResult {
	as := s.as
	switch op.kind {
	case opLoad:
		buf := make([]byte, len(op.data))
		err := as.Load(op.addr, buf)
		return eqResult{out: fmt.Sprintf("%x/%s", buf, errString(err))}
	case opStore:
		return eqResult{out: errString(as.Store(op.addr, op.data))}
	case opFlipBit:
		return eqResult{out: errString(as.FlipBit(op.addr, op.bit))}
	case opFlipCheckBit:
		return eqResult{out: errString(as.FlipCheckBit(op.addr, op.bit))}
	case opStickBit:
		return eqResult{out: errString(as.StickBit(op.addr, op.bit, op.val))}
	case opScrubPage:
		c, u, err := as.Regions()[op.ri].ScrubPage(op.pi, op.wb)
		return eqResult{out: fmt.Sprintf("%d/%d/%s", c, u, errString(err))}
	case opReplaceFrame:
		return eqResult{out: errString(as.Regions()[op.ri].ReplaceFrame(op.pi))}
	case opFlushPage:
		return eqResult{out: errString(as.Regions()[op.ri].FlushPage(op.pi))}
	case opRestoreWord:
		return eqResult{out: errString(as.Regions()[op.ri].RestoreWord(op.addr))}
	case opSnapshot:
		s.snap = as.Snapshot()
		return eqResult{}
	case opRestore:
		n, err := s.snap.Restore()
		return eqResult{out: errString(err), restored: n}
	case opTypedLoad:
		v, err := typedLoad(s.acc, op)
		return eqResult{out: fmt.Sprintf("%x/%s", v, errString(err))}
	case opTypedStore:
		return eqResult{out: errString(typedStore(s.acc, op))}
	}
	panic("unknown op")
}

// replayPair applies ops to both spaces and fails on the first op whose
// observable result diverges.
func replayPair(t *testing.T, fastS, slowS *eqSpace, ops []eqOp) {
	t.Helper()
	for i, op := range ops {
		if f, s := fastS.apply(op), slowS.apply(op); f != s {
			t.Fatalf("op %d %+v: fast=%+v slow=%+v", i, op, f, s)
		}
	}
}

// driveEquivalence applies nOps pseudo-random operations from seed to
// both spaces and fails on any observable divergence.
func driveEquivalence(t *testing.T, fastS, slowS *eqSpace, seed int64, nOps int) {
	t.Helper()
	regions := fastS.as.Regions()
	replayPair(t, fastS, slowS, withTypedOps(regions, seed, genOps(regions, seed, nOps)))
	compareEqSpaces(t, fastS, slowS)
}

// compareEqSpaces checks every observable end state of the pair.
func compareEqSpaces(t *testing.T, fastS, slowS *eqSpace) {
	t.Helper()
	if f, s := fastS.as.Counters(), slowS.as.Counters(); f != s {
		t.Errorf("counters diverged: fast=%+v slow=%+v", f, s)
	}
	if f, s := fastS.as.TaintedPages(), slowS.as.TaintedPages(); f != s {
		t.Errorf("tainted pages diverged: fast=%d slow=%d", f, s)
	}
	if f, s := len(fastS.log.entries), len(slowS.log.entries); f != s {
		t.Fatalf("event counts diverged: fast=%d slow=%d", f, s)
	}
	for i := range fastS.log.entries {
		if fastS.log.entries[i] != slowS.log.entries[i] {
			t.Fatalf("event %d diverged: fast=%q slow=%q", i, fastS.log.entries[i], slowS.log.entries[i])
		}
	}
	for ri, fr := range fastS.as.Regions() {
		sr := slowS.as.Regions()[ri]
		fb := make([]byte, fr.Size())
		sb := make([]byte, sr.Size())
		if err := fastS.as.ReadRaw(fr.Base(), fb); err != nil {
			t.Fatalf("ReadRaw fast %q: %v", fr.Name(), err)
		}
		if err := slowS.as.ReadRaw(sr.Base(), sb); err != nil {
			t.Fatalf("ReadRaw slow %q: %v", sr.Name(), err)
		}
		if !bytes.Equal(fb, sb) {
			t.Errorf("stored bytes diverged in region %q", fr.Name())
		}
		for pi := 0; pi < fr.PageCount(); pi++ {
			if fr.CorrectedOnPage(pi) != sr.CorrectedOnPage(pi) || fr.Replacements(pi) != sr.Replacements(pi) {
				t.Errorf("page %d frame counters diverged in region %q", pi, fr.Name())
			}
		}
	}
	// Sanity: the fast space actually exercised the fast path, and the
	// reference space never did.
	if fastS.as.FastPathLoads() == 0 {
		t.Error("fast space never took the fast path; the differential test is vacuous")
	}
	if n := slowS.as.FastPathLoads(); n != 0 {
		t.Errorf("slow space took the fast path %d times; SetFastPath(false) is broken", n)
	}
}

// driveCrossPageSpan replays the partial-taint scenario on both spaces:
// bytes, errors, and taint state must match.
func driveCrossPageSpan(t *testing.T, fastS, slowS *eqSpace, seed int64) {
	t.Helper()
	replayPair(t, fastS, slowS, genCrossPageOps(fastS.as.Regions(), seed))
	fp, fw := fastS.as.TaintStats()
	sp, sw := slowS.as.TaintStats()
	if fp != sp || fw != sw {
		t.Fatalf("taint diverged after span stream: fast=%d/%d slow=%d/%d", fp, fw, sp, sw)
	}
}

// TestPartialTaintSpanAcrossPages runs the cross-page span scenario
// deterministically over the full codec matrix.
func TestPartialTaintSpanAcrossPages(t *testing.T) {
	for _, tc := range eqCodecs() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 4; seed++ {
				fastS := newEqSpace(t, tc.codec(), true)
				slowS := newEqSpace(t, tc.codec(), false)
				driveCrossPageSpan(t, fastS, slowS, seed)
				compareEqSpaces(t, fastS, slowS)
			}
		})
	}
}

func TestAccessPathEquivalence(t *testing.T) {
	for _, tc := range eqCodecs() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 4; seed++ {
				fastS := newEqSpace(t, tc.codec(), true)
				slowS := newEqSpace(t, tc.codec(), false)
				driveEquivalence(t, fastS, slowS, seed, 1500)
			}
		})
	}
}

// FuzzAccessPathEquivalence fuzzes the operation stream (via the rng
// seed) across the codec matrix. Every execution opens with the
// cross-page span prologue — one corrupted word next to a page boundary,
// then streamed span reads across it — before the random op stream, so
// the partially-tainted-page walk is exercised on every input, not only
// when the rng happens to produce it. The random stream carries the
// typed ops withTypedOps interleaves, wild addresses among them, on
// every input, and every input also replays against the naive oracle
// (oracle_test.go).
func FuzzAccessPathEquivalence(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed%6))
	}
	// Dedicated corpus seeds for the cross-page prologue over each codec,
	// in the backed region and in the unbacked one (genCrossPageOps picks
	// by the seed's low bit).
	for c := int64(0); c < 6; c++ {
		f.Add(int64(0x9a9e)+c, uint8(c))
		f.Add(int64(0x9a9e)+c+1, uint8(c))
	}
	// And for the typed ops over each codec.
	for c := int64(0); c < 6; c++ {
		f.Add(int64(0x7e9ed)+c, uint8(c))
	}
	codecs := eqCodecs()
	f.Fuzz(func(t *testing.T, seed int64, codecIdx uint8) {
		tc := codecs[int(codecIdx)%len(codecs)]
		fastS := newEqSpace(t, tc.codec(), true)
		slowS := newEqSpace(t, tc.codec(), false)
		driveCrossPageSpan(t, fastS, slowS, seed)
		driveEquivalence(t, fastS, slowS, seed, 400)
		replayOracle(t, tc.codec, func(regions []*simmem.Region) []eqOp {
			return append(genCrossPageOps(regions, seed), withTypedOps(regions, seed, genOps(regions, seed, 400))...)
		})
	})
}
