package simmem

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestArenaNoOverlapProperty drives the arena with random alloc/free
// sequences and checks the fundamental invariants: live blocks never
// overlap, all stay inside the region, and freed blocks are reusable.
func TestArenaNoOverlapProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		as, err := New(Config{PageSize: 256})
		if err != nil {
			return false
		}
		r, err := as.AddRegion(RegionSpec{Name: "h", Kind: RegionHeap, Size: 8192})
		if err != nil {
			return false
		}
		a := NewArena(r)
		type block struct {
			addr Addr
			size int
		}
		var live []block
		ops := int(opsRaw)%200 + 20
		for i := 0; i < ops; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				if err := a.Free(live[k].addr); err != nil {
					return false
				}
				live = append(live[:k], live[k+1:]...)
				continue
			}
			size := rng.Intn(120) + 1
			addr, err := a.Alloc(size)
			if err != nil {
				continue // out of memory is legal
			}
			// Bounds.
			if addr < r.Base() || addr+Addr(size) > r.Base()+Addr(r.Size()) {
				return false
			}
			// Overlap against every live block (sizes rounded to 16).
			lo := addr
			hi := addr + Addr((size+15)/16*16)
			for _, b := range live {
				blo := b.addr
				bhi := b.addr + Addr((b.size+15)/16*16)
				if lo < bhi && blo < hi {
					return false
				}
			}
			live = append(live, block{addr: addr, size: size})
		}
		return a.Live() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// arenaState is an arena's bookkeeping in comparable form (empty free
// lists dropped: a drained list and an absent one allocate alike).
type arenaState struct {
	next  int
	free  map[int][]Addr
	sizes map[Addr]int
}

func stateOf(a *Arena) arenaState {
	st := arenaState{next: a.next, free: map[int][]Addr{}, sizes: map[Addr]int{}}
	for sz, list := range a.free {
		if len(list) > 0 {
			st.free[sz] = append([]Addr(nil), list...)
		}
	}
	for addr, sz := range a.sizes {
		st.sizes[addr] = sz
	}
	return st
}

// TestArenaRewindProperty: Rewind restores the marked state exactly
// whether or not it can skip the map rebuild — after an alloc and a free
// that leave the live count unchanged, on repeated rewinds to one mark
// with and without work in between, and when alternating between two
// different marks (a rewind to a mark other than the clean one is never
// skipped).
func TestArenaRewindProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		as, err := New(Config{PageSize: 256})
		if err != nil {
			return false
		}
		r, err := as.AddRegion(RegionSpec{Name: "h", Kind: RegionHeap, Size: 16384})
		if err != nil {
			return false
		}
		a := NewArena(r)
		var live []Addr
		churn := func(ops int) {
			for i := 0; i < ops; i++ {
				if len(live) > 0 && rng.Intn(3) == 0 {
					k := rng.Intn(len(live))
					if a.Free(live[k]) != nil {
						panic("free of a live block failed")
					}
					live = append(live[:k], live[k+1:]...)
				} else if addr, err := a.Alloc(rng.Intn(120) + 1); err == nil {
					live = append(live, addr)
				}
			}
		}
		ops := int(opsRaw)%60 + 10
		churn(ops)
		markA, wantA, liveA := a.Mark(), stateOf(a), append([]Addr(nil), live...)
		churn(ops)
		markB, wantB := a.Mark(), stateOf(a)

		rewound := func(m *ArenaMark, want arenaState) bool {
			a.Rewind(m)
			return reflect.DeepEqual(stateOf(a), want)
		}
		// B is the clean mark; rewinding to A must not be skipped.
		if !rewound(markA, wantA) {
			return false
		}
		// Nothing happened since: the skipped rewind still leaves A.
		if !rewound(markA, wantA) {
			return false
		}
		// One alloc and one free of the same block: the live count is
		// back where it was, the free lists are not.
		live = append([]Addr(nil), liveA...)
		if addr, err := a.Alloc(40); err == nil {
			if a.Free(addr) != nil {
				return false
			}
		}
		if !rewound(markA, wantA) {
			return false
		}
		// The mark survives repeated rewinds with work in between.
		for i := 0; i < 3; i++ {
			live = append([]Addr(nil), liveA...)
			churn(ops)
			if !rewound(markA, wantA) {
				return false
			}
		}
		// A is clean now; B is a different state and must be restored.
		return rewound(markB, wantB) && rewound(markA, wantA)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStackLIFOProperty drives random push/pop sequences and checks LIFO
// discipline and depth accounting.
func TestStackLIFOProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		as, err := New(Config{PageSize: 256})
		if err != nil {
			return false
		}
		r, err := as.AddRegion(RegionSpec{Name: "s", Kind: RegionStack, Size: 4096})
		if err != nil {
			return false
		}
		s := NewStack(r)
		var frames []Frame
		depth := 0
		ops := int(opsRaw)%150 + 10
		for i := 0; i < ops; i++ {
			if len(frames) > 0 && rng.Intn(2) == 0 {
				f := frames[len(frames)-1]
				if err := s.Pop(f); err != nil {
					return false
				}
				frames = frames[:len(frames)-1]
				depth -= f.Size
				continue
			}
			size := rng.Intn(100) + 1
			fr, err := s.Push(size)
			if err != nil {
				continue // overflow is legal
			}
			if int(fr.Base-r.Base()) != depth {
				return false // frames must be contiguous
			}
			frames = append(frames, fr)
			depth += fr.Size
		}
		return s.Depth() == depth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
