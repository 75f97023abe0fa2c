// An engine-independent memory oracle. The fast-vs-slow suites compare
// two modes of one implementation; this file holds a second, naive one
// that shares nothing with it — flat byte arrays, stuck-at masks, an
// Encode/Decode per touched codeword, no taint, no tiers, no scratch, no
// dirty tracking — and replays the same operation streams against a real
// AddressSpace. Data, faults and Counters must match op for op.
package simmem_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"hrmsim/internal/simmem"
)

// oracleRegion is one region of the naive memory.
type oracleRegion struct {
	base               simmem.Addr
	codec              simmem.Codec
	data, check        []byte
	stuckSet, stuckClr []byte
	backing            []byte   // nil when not backed
	corrected          []uint64 // per page
	replaced           []int    // per page
}

// oracleMem is the naive memory: regions plus the aggregate counters.
type oracleMem struct {
	ps       int
	regions  []*oracleRegion
	counters simmem.Counters
	snap     *oracleMem
}

// newOracle mirrors the layout of a freshly built (all-zero) space.
func newOracle(as *simmem.AddressSpace) *oracleMem {
	m := &oracleMem{ps: as.PageSize()}
	for _, r := range as.Regions() {
		or := &oracleRegion{
			base:      r.Base(),
			codec:     r.Codec(),
			data:      make([]byte, r.Size()),
			stuckSet:  make([]byte, r.Size()),
			stuckClr:  make([]byte, r.Size()),
			corrected: make([]uint64, r.PageCount()),
			replaced:  make([]int, r.PageCount()),
		}
		if r.Backed() {
			or.backing = make([]byte, r.Size())
		}
		if c := or.codec; c != nil {
			or.check = make([]byte, r.Size()/c.WordBytes()*c.CheckBytes())
			for off := 0; off < r.Size(); off += c.WordBytes() {
				or.encode(off)
			}
		}
		m.regions = append(m.regions, or)
	}
	return m
}

func (m *oracleMem) clone() *oracleMem {
	cp := &oracleMem{ps: m.ps, counters: m.counters}
	for _, r := range m.regions {
		cp.regions = append(cp.regions, &oracleRegion{
			base: r.base, codec: r.codec,
			data: bytes.Clone(r.data), check: bytes.Clone(r.check),
			stuckSet: bytes.Clone(r.stuckSet), stuckClr: bytes.Clone(r.stuckClr),
			backing:   bytes.Clone(r.backing),
			corrected: append([]uint64(nil), r.corrected...),
			replaced:  append([]int(nil), r.replaced...),
		})
	}
	return cp
}

// find returns the region containing addr and the offset within it.
func (m *oracleMem) find(addr simmem.Addr) (*oracleRegion, int) {
	for _, r := range m.regions {
		if addr >= r.base && addr < r.base+simmem.Addr(len(r.data)) {
			return r, int(addr - r.base)
		}
	}
	panic(fmt.Sprintf("oracle: %#x unmapped", uint64(addr)))
}

// locate is find for an n-byte application access: an address in no
// region is unmapped, a span running past its region's end is out of
// range. The arithmetic is unsigned, like the address space's.
func (m *oracleMem) locate(addr simmem.Addr, n int) (*oracleRegion, int, error) {
	for _, r := range m.regions {
		if addr >= r.base && uint64(addr-r.base) < uint64(len(r.data)) {
			if uint64(addr-r.base)+uint64(n) > uint64(len(r.data)) {
				return nil, 0, &simmem.Fault{Kind: simmem.FaultOutOfRange, Addr: addr}
			}
			return r, int(addr - r.base), nil
		}
	}
	return nil, 0, &simmem.Fault{Kind: simmem.FaultUnmapped, Addr: addr}
}

func (r *oracleRegion) sense(i int) byte { return r.data[i]&^r.stuckClr[i] | r.stuckSet[i] }

func (r *oracleRegion) checkOf(wo int) []byte {
	w, c := r.codec.WordBytes(), r.codec.CheckBytes()
	return r.check[wo/w*c : (wo/w+1)*c]
}

func (r *oracleRegion) encode(wo int) {
	r.codec.Encode(r.data[wo:wo+r.codec.WordBytes()], r.checkOf(wo))
}

// decode senses and decodes the codeword at word offset wo into fresh
// copies.
func (r *oracleRegion) decode(wo int) (word, check []byte, v simmem.Verdict) {
	word = make([]byte, r.codec.WordBytes())
	for i := range word {
		word[i] = r.sense(wo + i)
	}
	check = bytes.Clone(r.checkOf(wo))
	return word, check, r.codec.Decode(word, check)
}

// access decodes the codeword at wo the way an application access does:
// an uncorrectable pattern is a machine check (the spaces under test
// install no handler), a correction is counted.
func (m *oracleMem) access(r *oracleRegion, wo int) ([]byte, error) {
	word, _, v := r.decode(wo)
	switch v {
	case simmem.VerdictUncorrectable:
		m.counters.Uncorrectable++
		return nil, &simmem.Fault{Kind: simmem.FaultMachineCheck, Addr: r.base + simmem.Addr(wo)}
	case simmem.VerdictCorrected:
		m.counters.Corrected++
		r.corrected[wo/m.ps]++
	}
	return word, nil
}

func (m *oracleMem) load(addr simmem.Addr, buf []byte) error {
	r, off, err := m.locate(addr, len(buf))
	if err != nil {
		return err
	}
	for i := range buf {
		o := off + i
		if r.codec == nil {
			buf[i] = r.sense(o)
			continue
		}
		// Decode each codeword once, when the span first enters it.
		if w := r.codec.WordBytes(); i == 0 || o%w == 0 {
			word, err := m.access(r, o/w*w)
			if err != nil {
				return err
			}
			copy(buf[i:], word[o%w:])
		}
	}
	m.counters.Loads++
	return nil
}

func (m *oracleMem) store(addr simmem.Addr, data []byte) error {
	r, off, err := m.locate(addr, len(data))
	if err != nil {
		return err
	}
	if r.codec == nil {
		copy(r.data[off:], data)
		m.counters.Stores++
		return nil
	}
	w := r.codec.WordBytes()
	for wo := off / w * w; wo < off+len(data); wo += w {
		if wo < off || wo+w > off+len(data) {
			// Partial codeword: read-modify-write through a decode.
			word, err := m.access(r, wo)
			if err != nil {
				return err
			}
			copy(r.data[wo:], word)
		}
		lo, hi := max(wo, off), min(wo+w, off+len(data))
		copy(r.data[lo:hi], data[lo-off:])
		r.encode(wo)
	}
	m.counters.Stores++
	return nil
}

func (m *oracleMem) scrub(r *oracleRegion, pi int, writeBack bool) (corrected, uncorrectable int) {
	if r.codec == nil {
		return 0, 0
	}
	for wo := pi * m.ps; wo < (pi+1)*m.ps; wo += r.codec.WordBytes() {
		switch word, check, v := r.decode(wo); v {
		case simmem.VerdictCorrected:
			corrected++
			r.corrected[pi]++
			if writeBack {
				copy(r.data[wo:], word)
				copy(r.checkOf(wo), check)
			}
		case simmem.VerdictUncorrectable:
			uncorrectable++
		}
	}
	return corrected, uncorrectable
}

func (m *oracleMem) replaceFrame(r *oracleRegion, pi int) {
	lo, hi := pi*m.ps, (pi+1)*m.ps
	clear(r.stuckSet[lo:hi])
	clear(r.stuckClr[lo:hi])
	clear(r.data[lo:hi])
	if r.backing != nil {
		copy(r.data[lo:hi], r.backing[lo:hi])
	}
	r.corrected[pi] = 0
	r.replaced[pi]++
	if r.codec != nil {
		for wo := lo; wo < hi; wo += r.codec.WordBytes() {
			r.encode(wo)
		}
	}
}

// apply runs one op and renders it exactly as eqSpace.apply does.
func (m *oracleMem) apply(op eqOp) string {
	switch op.kind {
	case opLoad:
		buf := make([]byte, len(op.data))
		err := m.load(op.addr, buf)
		return fmt.Sprintf("%x/%s", buf, errString(err))
	case opStore, opTypedStore:
		return errString(m.store(op.addr, op.data))
	case opTypedLoad:
		var b [8]byte
		if err := m.load(op.addr, b[:len(op.data)]); err != nil {
			return "0/" + errString(err)
		}
		return fmt.Sprintf("%x/", binary.LittleEndian.Uint64(b[:]))
	case opFlipBit:
		r, off := m.find(op.addr)
		r.data[off] ^= 1 << op.bit
	case opFlipCheckBit:
		r, off := m.find(op.addr)
		r.checkOf(off / r.codec.WordBytes() * r.codec.WordBytes())[op.bit/8] ^= 1 << (op.bit % 8)
	case opStickBit:
		r, off := m.find(op.addr)
		on, other := r.stuckSet, r.stuckClr
		if op.val == 0 {
			on, other = other, on
		}
		on[off] |= 1 << op.bit
		other[off] &^= 1 << op.bit
	case opScrubPage:
		c, u := m.scrub(m.regions[op.ri], op.pi, op.wb)
		return fmt.Sprintf("%d/%d/", c, u)
	case opReplaceFrame:
		m.replaceFrame(m.regions[op.ri], op.pi)
	case opFlushPage:
		r := m.regions[op.ri]
		copy(r.backing[op.pi*m.ps:(op.pi+1)*m.ps], r.data[op.pi*m.ps:])
	case opRestoreWord:
		r, off := m.find(op.addr)
		if r.codec == nil {
			r.data[off] = r.backing[off]
			break
		}
		w := r.codec.WordBytes()
		wo := off / w * w
		copy(r.data[wo:wo+w], r.backing[wo:])
		r.encode(wo)
	case opSnapshot:
		m.snap = m.clone()
	case opRestore:
		snap := m.snap
		*m = *snap.clone()
		m.snap = snap
	}
	return ""
}

// replayOracle builds a real space and its oracle twin, replays ops on
// both, and requires identical per-op results, Counters, stored bytes
// and per-frame counters.
func replayOracle(t *testing.T, codec func() simmem.Codec, gen func([]*simmem.Region) []eqOp) {
	t.Helper()
	sp := newEqSpace(t, codec(), true)
	oracle := newOracle(sp.as)
	for i, op := range gen(sp.as.Regions()) {
		if got, want := sp.apply(op).out, oracle.apply(op); got != want {
			t.Fatalf("op %d %+v: space=%q oracle=%q", i, op, got, want)
		}
		if got, want := sp.as.Counters(), oracle.counters; got != want {
			t.Fatalf("op %d %+v: counters space=%+v oracle=%+v", i, op, got, want)
		}
	}
	for ri, r := range sp.as.Regions() {
		or := oracle.regions[ri]
		stored := make([]byte, r.Size())
		if err := sp.as.ReadRaw(r.Base(), stored); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored, or.data) {
			t.Errorf("stored bytes diverged from the oracle in region %q", r.Name())
		}
		for pi := 0; pi < r.PageCount(); pi++ {
			if r.CorrectedOnPage(pi) != or.corrected[pi] || r.Replacements(pi) != or.replaced[pi] {
				t.Errorf("page %d frame counters diverged from the oracle in region %q", pi, r.Name())
			}
		}
	}
}

// TestMemoryOracle replays the differential suite's streams — the
// cross-page prologue, then the random stream, including Snapshot/
// Restore and ReplaceFrame, with typed accesses (wild addresses among
// them) interleaved — against the oracle over every codec.
func TestMemoryOracle(t *testing.T) {
	for _, tc := range eqCodecs() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 4; seed++ {
				replayOracle(t, tc.codec, func(regions []*simmem.Region) []eqOp {
					return append(genCrossPageOps(regions, seed), withTypedOps(regions, seed, genOps(regions, seed, 1500))...)
				})
			}
		})
	}
}
