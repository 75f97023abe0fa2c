// The memory-level half of deciding a trial from its first touch
// (internal/core/decide.go, DESIGN.md §9). The campaign engine skips a
// trial when a fault-free pass shows the injected granule — the codeword
// in a protected region, the byte in an unprotected one — is never
// referenced, or (soft errors) is first referenced by a store covering
// all of it. That is sound only if this package's access paths make such
// a fault unobservable; the property below replays random access scripts
// with and without the fault and requires exactly that, using the
// differential suite's script generator.
package simmem_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hrmsim/internal/ecc"
	"hrmsim/internal/simmem"
)

type firstTouch int

const (
	touchNever firstTouch = iota
	touchOverwrite
	touchSensed
)

// firstTouchOf states the rules' precondition straight from the script:
// how window first references the granule holding target.
func firstTouchOf(r *simmem.Region, target simmem.Addr, window []eqOp) firstTouch {
	g := 1
	if c := r.Codec(); c != nil {
		g = c.WordBytes()
	}
	lo := r.Base() + simmem.Addr(int(target-r.Base())/g*g)
	hi := lo + simmem.Addr(g)
	for _, op := range window {
		a, b := op.addr, op.addr+simmem.Addr(len(op.data))
		if b <= lo || a >= hi {
			continue
		}
		if op.kind == opStore && a <= lo && b >= hi {
			return touchOverwrite
		}
		return touchSensed
	}
	return touchNever
}

// accessScript draws a warm-up of stores (so memory holds data worth
// corrupting) and a measured window of loads and stores from the
// differential generator: spans of 1–48 bytes at any offset, so partial
// codeword stores and spans crossing codewords and 256-byte pages are
// the norm, plus the cross-page sliding reads.
func accessScript(regions []*simmem.Region, seed int64) (warm, window []eqOp) {
	for _, op := range genOps(regions, seed, 600) {
		switch {
		case op.kind == opStore && len(warm) < 80:
			warm = append(warm, op)
		case (op.kind == opStore || op.kind == opLoad) && len(warm) == 80 && len(window) < 70:
			window = append(window, op)
		}
	}
	for _, op := range genCrossPageOps(regions, seed) {
		if op.kind == opLoad {
			window = append(window, op)
		}
	}
	return warm, window
}

// replay runs warm, then fault, then window on a fresh space and returns
// what the window let its caller observe: each op's result, the access
// and ECC event stream, and the stored bytes at the end.
func replay(t *testing.T, codec simmem.Codec, warm, fault, window []eqOp) (outs, events []string, stored [][]byte) {
	t.Helper()
	sp := newEqSpace(t, codec, true)
	for _, op := range warm {
		if out := sp.apply(op).out; out != "" {
			t.Fatalf("warm-up op %+v: %s", op, out)
		}
	}
	for _, op := range fault {
		if out := sp.apply(op).out; out != "" {
			t.Fatalf("fault op %+v: %s", op, out)
		}
	}
	mark := len(sp.log.entries)
	for _, op := range window {
		outs = append(outs, sp.apply(op).out)
	}
	events = sp.log.entries[mark:]
	for _, r := range sp.as.Regions() {
		buf := make([]byte, r.Size())
		if err := sp.as.ReadRaw(r.Base(), buf); err != nil {
			t.Fatal(err)
		}
		stored = append(stored, buf)
	}
	return outs, events, stored
}

// TestFirstTouchDecidesFault: whenever the script's first touch of the
// faulted granule is "never", or "overwritten whole" for a soft fault,
// the faulty replay is indistinguishable from the fault-free one — same
// load data and errors op for op, same event stream (so no ECC event,
// before the covering store or after), and stored bytes equal but for a
// never-referenced soft flip still sitting in its byte.
func TestFirstTouchDecidesFault(t *testing.T) {
	for _, tc := range eqCodecs() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			decided := map[firstTouch]int{}
			for seed := int64(1); seed <= 3; seed++ {
				layout := newEqSpace(t, tc.codec(), true).as.Regions()
				warm, window := accessScript(layout, seed)
				wantOuts, wantEvents, wantStored := replay(t, tc.codec(), warm, nil, window)

				rng := rand.New(rand.NewSource(seed * 7919))
				for trial := 0; trial < 150; trial++ {
					ri := rng.Intn(len(layout))
					r := layout[ri]
					off := rng.Intn(r.Size())
					target := r.Base() + simmem.Addr(off)
					// One to three distinct bits of one byte, flipped or
					// stuck (Algorithm 1(a)'s multi-bit errors).
					hard := rng.Intn(2) == 0
					var fault []eqOp
					var mask byte
					for _, bit := range rng.Perm(8)[:1+rng.Intn(3)] {
						mask |= 1 << bit
						if hard {
							fault = append(fault, eqOp{kind: opStickBit, addr: target, bit: bit, val: rng.Intn(2)})
						} else {
							fault = append(fault, eqOp{kind: opFlipBit, addr: target, bit: bit})
						}
					}
					touch := firstTouchOf(r, target, window)
					if touch == touchSensed || (touch == touchOverwrite && hard) {
						continue
					}
					decided[touch]++
					what := fmt.Sprintf("seed %d, %s+%d, hard=%v mask %#02x, first touch %d", seed, r.Name(), off, hard, mask, touch)
					outs, events, stored := replay(t, tc.codec(), warm, fault, window)
					if i := firstDiff(outs, wantOuts); i >= 0 {
						t.Fatalf("%s: op %d %+v returned %q, fault-free %q", what, i, window[i], outs[i], wantOuts[i])
					}
					if i := firstDiff(events, wantEvents); i >= 0 {
						t.Fatalf("%s: event %d is %q, fault-free %q", what, i, events[i], wantEvents[i])
					}
					if touch == touchNever && !hard {
						// The flip is latent, not gone.
						stored[ri][off] ^= mask
					}
					for k := range stored {
						if !bytes.Equal(stored[k], wantStored[k]) {
							t.Fatalf("%s: region %d stored bytes differ from the fault-free run", what, k)
						}
					}
				}
			}
			if decided[touchNever] == 0 || decided[touchOverwrite] == 0 {
				t.Fatalf("scripts exercised never=%d overwrite=%d decidable faults; both rules need cases",
					decided[touchNever], decided[touchOverwrite])
			}
		})
	}
}

// firstDiff returns the first index at which a and b differ (a length
// mismatch counts at the shorter length), or -1.
func firstDiff(a, b []string) int {
	if slices.Equal(a, b) {
		return -1
	}
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestPartialStoreFirstTouchIsNotDecidable: the conservative side of the
// overwrite rule is necessary. A store of part of a SEC-DED codeword
// reads the rest back through the decoder, so a double-bit flip in bytes
// the store does not even cover turns it into a machine check; the same
// script with a store of the whole codeword never notices. The
// classifier must call the first sensed and only the second overwritten.
func TestPartialStoreFirstTouchIsNotDecidable(t *testing.T) {
	codec := ecc.NewSECDED()
	layout := newEqSpace(t, codec, true).as.Regions()
	heap := layout[1]
	word := heap.Base() + 64
	warm := []eqOp{{kind: opStore, addr: heap.Base(), data: bytes.Repeat([]byte{0xa5}, 128)}}
	fault := []eqOp{{kind: opFlipBit, addr: word + 6, bit: 1}, {kind: opFlipBit, addr: word + 6, bit: 4}}
	partial := []eqOp{{kind: opStore, addr: word, data: []byte{1, 2, 3, 4}}}
	whole := []eqOp{{kind: opStore, addr: word - 3, data: bytes.Repeat([]byte{9}, 14)}}

	if got := firstTouchOf(heap, word+6, partial); got != touchSensed {
		t.Errorf("partial store classified %d, want sensed (%d)", got, touchSensed)
	}
	if got := firstTouchOf(heap, word+6, whole); got != touchOverwrite {
		t.Errorf("covering store classified %d, want overwritten (%d)", got, touchOverwrite)
	}
	clean, _, _ := replay(t, codec, warm, nil, partial)
	faulty, _, _ := replay(t, codec, warm, fault, partial)
	if clean[0] != "" || faulty[0] == "" {
		t.Errorf("partial store over a 2-bit flip returned %q (fault-free %q), want a machine check", faulty[0], clean[0])
	}
	clean, _, cleanStored := replay(t, codec, warm, nil, whole)
	faulty, events, stored := replay(t, codec, warm, fault, whole)
	if clean[0] != "" || faulty[0] != "" || len(events) != 1 {
		t.Errorf("covering store returned %q / %q with events %v, want a clean store and its one access event", clean[0], faulty[0], events)
	}
	if !bytes.Equal(stored[1], cleanStored[1]) {
		t.Error("covering store left the flip in storage")
	}
}
