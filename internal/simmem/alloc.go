package simmem

import (
	"errors"
	"fmt"
)

// ErrOutOfMemory is returned when a region cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("simmem: region out of memory")

const allocAlign = 16

// Arena is a bump allocator over a region with 16-byte alignment: blocks
// are never freed. It is how the key–value store obtains simulated memory
// for its hash table and chained entries.
//
// The arena's bookkeeping lives in host memory, not in the simulated
// region: an injected error can corrupt application data but not the
// allocator itself — matching the paper's setup, where the OS allocator
// metadata is outside the studied application regions.
type Arena struct {
	r    *Region
	next int
}

// NewArena creates an allocator over r.
func NewArena(r *Region) *Arena { return &Arena{r: r} }

// Alloc reserves size bytes and returns the address of the block. The
// block's previous contents are not cleared: like malloc, freshly allocated
// memory may hold stale (or corrupted) bytes until the application writes
// them.
func (a *Arena) Alloc(size int) (Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("simmem: allocation size must be positive, got %d", size)
	}
	rounded := (size + allocAlign - 1) / allocAlign * allocAlign
	if a.next+rounded > a.r.size {
		return 0, fmt.Errorf("%w: region %q (%d of %d bytes used, need %d)",
			ErrOutOfMemory, a.r.name, a.next, a.r.size, rounded)
	}
	addr := a.r.base + Addr(a.next)
	a.next += rounded
	if a.next > a.r.used {
		a.r.SetUsed(a.next)
	}
	return addr, nil
}

// ArenaMark is a captured bump pointer (Arena.Mark / Arena.Rewind).
type ArenaMark struct{ next int }

// Mark captures the bump pointer so a later Rewind can discard the
// allocations made since — the allocator half of the snapshot/restore
// trial lifecycle (host-side bookkeeping lives outside the simulated
// region, so simmem.Snapshot cannot capture it).
func (a *Arena) Mark() ArenaMark { return ArenaMark{next: a.next} }

// Rewind restores the bump pointer Mark captured. The mark stays valid
// for further rewinds.
func (a *Arena) Rewind(m ArenaMark) { a.next = m.next }

// Stack manages a region as an upward-growing call stack of frames. Applications push a frame per request handler, write their
// "local variables" into it, and pop it on return — which is what gives the
// stack region its high overwrite-masking potential in the paper's
// characterization (Finding 4).
type Stack struct {
	r  *Region
	sp int
}

// NewStack creates a stack over r.
func NewStack(r *Region) *Stack {
	return &Stack{r: r}
}

// Region returns the underlying region.
func (s *Stack) Region() *Region { return s.r }

// Frame is one pushed stack frame.
type Frame struct {
	Base Addr
	Size int
}

// Push reserves a frame of size bytes (16-byte aligned). Like a real call
// stack, the frame's memory retains whatever bytes the previous occupant
// (or an injected error) left there until the function writes its locals.
func (s *Stack) Push(size int) (Frame, error) {
	if size <= 0 {
		return Frame{}, fmt.Errorf("simmem: frame size must be positive, got %d", size)
	}
	rounded := (size + allocAlign - 1) / allocAlign * allocAlign
	if s.sp+rounded > s.r.size {
		return Frame{}, fmt.Errorf("%w: stack %q overflow (sp %d, frame %d, size %d)",
			ErrOutOfMemory, s.r.name, s.sp, rounded, s.r.size)
	}
	f := Frame{Base: s.r.base + Addr(s.sp), Size: rounded}
	s.sp += rounded
	if s.sp > s.r.used {
		s.r.SetUsed(s.sp)
	}
	return f, nil
}

// Pop releases the most recently pushed frame, which must be f.
func (s *Stack) Pop(f Frame) error {
	base := int(f.Base - s.r.base)
	if base+f.Size != s.sp {
		return fmt.Errorf("simmem: pop of non-top frame at %#x (size %d, sp %d)",
			uint64(f.Base), f.Size, s.sp)
	}
	s.sp = base
	return nil
}

// Depth returns the current stack pointer offset.
func (s *Stack) Depth() int { return s.sp }

// Rewind forces the stack pointer back to an absolute depth previously
// observed via Depth, discarding any frames pushed since — the stack
// half of the snapshot/restore trial lifecycle.
func (s *Stack) Rewind(depth int) error {
	if depth < 0 || depth > s.r.size {
		return fmt.Errorf("simmem: rewind depth %d outside [0,%d]", depth, s.r.size)
	}
	s.sp = depth
	return nil
}
