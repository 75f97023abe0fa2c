package simmem

import (
	"errors"
	"fmt"
)

// ErrOutOfMemory is returned when a region cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("simmem: region out of memory")

const allocAlign = 16

// Arena is a simple allocator over a region: bump allocation with
// exact-size free lists, 16-byte alignment. It is how the heap-using
// applications (key–value store, graph mining) obtain simulated memory for
// their dynamic data structures.
//
// The arena's bookkeeping lives in host memory, not in the simulated
// region: an injected error can corrupt application data but not the
// allocator itself — matching the paper's setup, where the OS allocator
// metadata is outside the studied application regions.
type Arena struct {
	r     *Region
	next  int
	free  map[int][]Addr
	sizes map[Addr]int
	// clean is the mark the arena's state currently equals: set by Mark
	// and Rewind, cleared by Alloc and Free. Rewinding to it is a no-op,
	// which is every trial that allocated nothing.
	clean *ArenaMark
}

// NewArena creates an allocator over r.
func NewArena(r *Region) *Arena {
	return &Arena{
		r:     r,
		free:  make(map[int][]Addr),
		sizes: make(map[Addr]int),
	}
}

// Region returns the region the arena allocates from.
func (a *Arena) Region() *Region { return a.r }

// Alloc reserves size bytes and returns the address of the block. The
// block's previous contents are not cleared: like malloc, freshly allocated
// memory may hold stale (or corrupted) bytes until the application writes
// them.
func (a *Arena) Alloc(size int) (Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("simmem: allocation size must be positive, got %d", size)
	}
	rounded := (size + allocAlign - 1) / allocAlign * allocAlign
	a.clean = nil
	if list := a.free[rounded]; len(list) > 0 {
		addr := list[len(list)-1]
		a.free[rounded] = list[:len(list)-1]
		a.sizes[addr] = rounded
		return addr, nil
	}
	if a.next+rounded > a.r.size {
		return 0, fmt.Errorf("%w: region %q (%d of %d bytes used, need %d)",
			ErrOutOfMemory, a.r.name, a.next, a.r.size, rounded)
	}
	addr := a.r.base + Addr(a.next)
	a.next += rounded
	a.sizes[addr] = rounded
	if a.next > a.r.used {
		a.r.SetUsed(a.next)
	}
	return addr, nil
}

// Free returns a block to the arena. Freeing an address that was not
// returned by Alloc (or freeing twice) is an error.
func (a *Arena) Free(addr Addr) error {
	size, ok := a.sizes[addr]
	if !ok {
		return fmt.Errorf("simmem: free of unallocated address %#x", uint64(addr))
	}
	a.clean = nil
	delete(a.sizes, addr)
	a.free[size] = append(a.free[size], addr)
	return nil
}

// ArenaMark is a captured allocator state (Arena.Mark / Arena.Rewind).
type ArenaMark struct {
	next  int
	free  map[int][]Addr
	sizes map[Addr]int
}

// Mark captures the allocator's current state so a later Rewind can
// discard allocations and frees made since — the allocator half of the
// snapshot/restore trial lifecycle (host-side bookkeeping lives outside
// the simulated region, so simmem.Snapshot cannot capture it).
func (a *Arena) Mark() *ArenaMark {
	m := &ArenaMark{
		next:  a.next,
		free:  make(map[int][]Addr, len(a.free)),
		sizes: make(map[Addr]int, len(a.sizes)),
	}
	for sz, list := range a.free {
		m.free[sz] = append([]Addr(nil), list...)
	}
	for addr, sz := range a.sizes {
		m.sizes[addr] = sz
	}
	a.clean = m
	return m
}

// Rewind restores the state captured by Mark. The mark stays valid for
// further rewinds. When nothing was allocated or freed since this mark
// was taken or last rewound to, the state already equals it and the map
// rebuild is skipped.
func (a *Arena) Rewind(m *ArenaMark) {
	if a.clean == m {
		return
	}
	a.clean = m
	a.next = m.next
	a.free = make(map[int][]Addr, len(m.free))
	for sz, list := range m.free {
		a.free[sz] = append([]Addr(nil), list...)
	}
	a.sizes = make(map[Addr]int, len(m.sizes))
	for addr, sz := range m.sizes {
		a.sizes[addr] = sz
	}
}

// Live returns the number of live allocations.
func (a *Arena) Live() int { return len(a.sizes) }

// Bytes returns the high-water mark of bytes ever allocated.
func (a *Arena) Bytes() int { return a.next }

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
