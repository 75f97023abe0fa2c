package simmem

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestArenaNoOverlapProperty drives the arena with random allocation
// sequences and checks the fundamental invariants: blocks never overlap,
// all stay inside the region, and the region's used bytes cover them.
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
			size := rng.Intn(120) + 1
			addr, err := a.Alloc(size)
			if err != nil {
				continue // out of memory is legal
			}
			// Bounds.
			if addr < r.Base() || addr+Addr(size) > r.Base()+Addr(r.Size()) {
				return false
			}
			// Overlap against every block (sizes rounded to 16).
			lo := addr
			hi := addr + Addr((size+15)/16*16)
			for _, b := range live {
				blo := b.addr
				bhi := b.addr + Addr((b.size+15)/16*16)
				if lo < bhi && blo < hi {
					return false
				}
			}
			if int(hi-r.Base()) > r.Used() {
				return false
			}
			live = append(live, block{addr: addr, size: size})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestArenaRewindProperty: after a Rewind the arena hands out exactly the
// blocks it handed out after the mark was taken — on repeated rewinds to
// one mark with work in between, and when alternating between two
// different marks.
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
		churn := func(ops int) {
			for i := 0; i < ops; i++ {
				a.Alloc(rng.Intn(120) + 1) // out of memory is legal
			}
		}
		// probe allocates a fixed sequence of sizes and returns where the
		// blocks landed (0 for a failed allocation).
		probe := func() []Addr {
			var out []Addr
			for _, size := range []int{1, 40, 120, 16} {
				addr, _ := a.Alloc(size)
				out = append(out, addr)
			}
			return out
		}
		ops := int(opsRaw)%60 + 10
		churn(ops)
		markA := a.Mark()
		wantA := probe()
		churn(ops)
		markB := a.Mark()
		wantB := probe()

		rewound := func(m ArenaMark, want []Addr) bool {
			a.Rewind(m)
			return slices.Equal(probe(), want)
		}
		if !rewound(markA, wantA) {
			return false
		}
		// The mark survives repeated rewinds with work in between.
		for i := 0; i < 3; i++ {
			churn(ops)
			if !rewound(markA, wantA) {
				return false
			}
		}
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
