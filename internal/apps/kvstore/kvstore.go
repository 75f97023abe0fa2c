// Package kvstore implements a Memcached-style in-memory key–value store
// on simulated memory — the second workload of the paper's case study.
//
// All store state lives in the heap region: a bucket array of entry
// addresses and chained entries carved from an arena allocator, each entry
// holding {key, version, value length, next pointer, value bytes}. The
// client workload is the paper's 90% GET / 10% SET mix over Zipfian keys,
// and the store is pre-populated (a warm cache over a fixed dataset, like
// the paper's 30 GB Twitter snapshot). Per-request locals — the key, the
// chain cursor — live in small stack frames.
//
// Corruption consequences mirror a native implementation: a flipped bit in
// a next pointer walks into the guard gap and faults (crash); a flipped
// key bit makes a lookup miss or hit the wrong entry (incorrect response);
// a flipped value bit is served to the client (incorrect); corrupted
// chain structure that forms a cycle trips the operation budget (hang →
// declared crash).
package kvstore

import (
	"fmt"
	"math/rand"
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/simmem"
	"hrmsim/internal/trace"
)

// Config parameterizes a kvstore build.
type Config struct {
	// Seed drives workload generation.
	Seed int64
	// Keys is the number of distinct keys (the store is pre-populated
	// with all of them).
	Keys int
	// Ops is the client workload length.
	Ops int
	// ReadFraction is the GET share (the paper uses 0.9).
	ReadFraction float64
	// ValueSize is the value payload size in bytes.
	ValueSize int
	// Buckets is the hash-table bucket count (defaults to Keys).
	Buckets int
	// RequestCost advances the virtual clock per operation.
	RequestCost time.Duration
	// OpBudget caps simulated memory operations per request.
	OpBudget int
	// HeapBacked gives the heap a persistent-storage shadow copy
	// (synchronized to the pre-populated store at build time), enabling
	// Par+R-style software recovery of store data. The live server uses
	// it; the paper's Table 2 classifies cache data as explicitly
	// recoverable from the backing database.
	HeapBacked bool
	// HeapCodec / StackCodec optionally protect regions.
	HeapCodec, StackCodec simmem.Codec
	// HeapMC / StackMC install software responses.
	HeapMC, StackMC simmem.MCHandler
}

// DefaultConfig returns a laptop-scale configuration: ~2K keys with
// 64-byte values (the paper's 35 GB heap / 132 KB stack shape — heap
// dominant, stack tiny).
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:         seed,
		Keys:         2048,
		Ops:          2000,
		ReadFraction: 0.9,
		ValueSize:    64,
		RequestCost:  5 * time.Millisecond,
		OpBudget:     50000,
	}
}

// SizedConfig is DefaultConfig at a campaign workload size, with requests
// spread over ~20 virtual minutes at SizeMedium. SizeLarge is
// DefaultConfig's own geometry.
func SizedConfig(size apps.Size, seed int64) (Config, error) {
	cfg := DefaultConfig(seed)
	cfg.RequestCost = 2 * time.Second
	switch size {
	case apps.SizeSmall:
		cfg.Keys, cfg.Ops = 128, 200
	case apps.SizeMedium:
		cfg.Keys, cfg.Ops = 512, 600
	case apps.SizeLarge:
	default:
		return cfg, fmt.Errorf("kvstore: unknown workload size %d", size)
	}
	return cfg, nil
}

const entryHeaderBytes = 24 // key u64, version u32, vlen u32, next u64

// Builder pre-generates the op trace; Build materializes fresh stores.
type Builder struct {
	cfg Config
	ops []trace.KVOp
}

// NewBuilder generates the workload for the configuration.
func NewBuilder(cfg Config) (*Builder, error) {
	if cfg.Buckets == 0 {
		cfg.Buckets = cfg.Keys
	}
	if cfg.ValueSize <= 0 {
		return nil, fmt.Errorf("kvstore: value size must be positive, got %d", cfg.ValueSize)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ops, err := trace.GenKVOps(rng, cfg.Keys, cfg.Ops, cfg.ReadFraction)
	if err != nil {
		return nil, fmt.Errorf("kvstore: generating ops: %w", err)
	}
	return &Builder{cfg: cfg, ops: ops}, nil
}

// AppName implements apps.Builder.
func (b *Builder) AppName() string { return "kvstore" }

// Config returns the builder's configuration.
func (b *Builder) Config() Config { return b.cfg }

// App is one kvstore instance.
type App struct {
	cfg     Config
	as      *simmem.AddressSpace
	heap    *simmem.Region
	arena   *simmem.Arena
	stack   *simmem.Stack
	ops     []trace.KVOp
	buckets simmem.Addr // bucket array base

	// Two access streams, one accessor each: chain walks alternate
	// between the stack-frame cursor and heap entries on every hop, so
	// a single one-entry region cache would thrash on the alternation
	// (see simmem.Accessor).
	frameAcc *simmem.Accessor
	dataAcc  *simmem.Accessor

	// Snapshot state (apps.SnapshotApp): memory capture plus the
	// host-side mutable state — allocator bookkeeping (SET-miss inserts
	// allocate) and stack depth.
	snap      apps.Checkpoint
	snapArena simmem.ArenaMark
}

var _ apps.SnapshotApp = (*App)(nil)

// BuildSnapshot implements apps.SnapshotBuilder.
func (b *Builder) BuildSnapshot() (apps.SnapshotApp, error) {
	cfg := b.cfg
	entrySize := entryHeaderBytes + cfg.ValueSize
	// Region size: bucket array + all entries + slack for SET-allocated
	// duplicates (none today, entries are updated in place) + rounding.
	heapSize := cfg.Buckets*8 + cfg.Keys*(entrySize+16) + 16384

	as, err := simmem.New(simmem.Config{})
	if err != nil {
		return nil, fmt.Errorf("kvstore: creating address space: %w", err)
	}
	heap, err := as.AddRegion(simmem.RegionSpec{
		Name: "heap", Kind: simmem.RegionHeap, Size: heapSize,
		Backed: cfg.HeapBacked, Codec: cfg.HeapCodec, MC: cfg.HeapMC,
	})
	if err != nil {
		return nil, fmt.Errorf("kvstore: mapping heap: %w", err)
	}
	stackRegion, err := as.AddRegion(simmem.RegionSpec{
		Name: "stack", Kind: simmem.RegionStack, Size: 16 << 10,
		Codec: cfg.StackCodec, MC: cfg.StackMC,
	})
	if err != nil {
		return nil, fmt.Errorf("kvstore: mapping stack: %w", err)
	}

	// Mark the request handler's frame bytes as live stack (see the
	// equivalent note in websearch).
	stackRegion.SetUsed(frameBytes)

	app := &App{
		cfg:   cfg,
		as:    as,
		heap:  heap,
		arena: simmem.NewArena(heap),
		stack: simmem.NewStack(stackRegion),
		ops:   b.ops,
	}
	app.frameAcc = as.NewAccessor()
	app.dataAcc = as.NewAccessor()
	// Bucket array first, zeroed (0 = empty chain).
	buckets, err := app.arena.Alloc(cfg.Buckets * 8)
	if err != nil {
		return nil, fmt.Errorf("kvstore: allocating buckets: %w", err)
	}
	app.buckets = buckets
	zero := make([]byte, cfg.Buckets*8)
	if err := as.WriteRaw(buckets, zero); err != nil {
		return nil, fmt.Errorf("kvstore: zeroing buckets: %w", err)
	}
	// Pre-populate every key at version 0.
	for k := 0; k < cfg.Keys; k++ {
		if err := app.insert(uint64(k), 0); err != nil {
			return nil, fmt.Errorf("kvstore: pre-populating key %d: %w", k, err)
		}
	}
	// A backed heap checkpoints the populated store, so recovery
	// handlers restore the warm-cache contents, not zeroes.
	if cfg.HeapBacked {
		if err := heap.FlushAll(); err != nil {
			return nil, fmt.Errorf("kvstore: checkpointing heap: %w", err)
		}
	}
	return app, nil
}

// hashKey is the bucket hash (host arithmetic on a value the request
// carries, like a register computation).
func hashKey(key uint64, buckets int) int {
	h := key * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return int(h % uint64(buckets))
}

// insert links a fresh entry at its bucket head (build-time population and
// SET-miss path share it).
func (a *App) insert(key uint64, version uint32) error {
	entrySize := entryHeaderBytes + a.cfg.ValueSize
	addr, err := a.arena.Alloc(entrySize)
	if err != nil {
		return err
	}
	slot := a.buckets + simmem.Addr(hashKey(key, a.cfg.Buckets)*8)
	head, err := a.dataAcc.LoadU64(slot)
	if err != nil {
		return err
	}
	buf := make([]byte, entrySize)
	putU64(buf[0:], key)
	putU32(buf[8:], version)
	putU32(buf[12:], uint32(a.cfg.ValueSize))
	putU64(buf[16:], head)
	copy(buf[entryHeaderBytes:], trace.ValueFor(key, version, a.cfg.ValueSize))
	if err := a.dataAcc.Store(addr, buf); err != nil {
		return err
	}
	return a.dataAcc.StoreU64(slot, uint64(addr))
}

// Build implements apps.Builder.
func (b *Builder) Build() (apps.App, error) { return b.BuildSnapshot() }

var _ apps.SnapshotBuilder = (*Builder)(nil)

// Snapshot implements apps.SnapshotApp. Region used marks are restored
// by the memory snapshot; the arena mark covers the allocator's
// host-side bump pointer.
func (a *App) Snapshot() error {
	a.snap.Capture(a.as, a.stack)
	a.snapArena = a.arena.Mark()
	return nil
}

// Reset implements apps.SnapshotApp.
func (a *App) Reset() (int, error) {
	n, err := a.snap.Restore("kvstore", a.stack)
	if err == nil {
		a.arena.Rewind(a.snapArena)
	}
	return n, err
}

// Name implements apps.App.
func (a *App) Name() string { return "kvstore" }

// Space implements apps.App.
func (a *App) Space() *simmem.AddressSpace { return a.as }

// NumRequests implements apps.App.
func (a *App) NumRequests() int { return len(a.ops) }

// Stack-frame layout.
const (
	frKey      = 0 // u64 request key
	frCursor   = 8 // u64 current entry address
	frameBytes = 32
)

// Serve implements apps.App.
func (a *App) Serve(i int) (resp apps.Response, err error) {
	if i < 0 || i >= len(a.ops) {
		return apps.Response{}, fmt.Errorf("kvstore: request %d out of range", i)
	}
	a.as.Clock().Advance(a.cfg.RequestCost)
	op := a.ops[i]
	budget := apps.NewBudget(a.cfg.OpBudget)

	frame, err := a.stack.Push(frameBytes)
	if err != nil {
		return apps.Response{}, fmt.Errorf("kvstore: pushing frame: %w", err)
	}
	defer func() {
		if perr := a.stack.Pop(frame); perr != nil && err == nil {
			err = perr
		}
	}()
	return a.serveOp(frame, op, budget)
}

func (a *App) serveOp(frame simmem.Frame, op trace.KVOp, budget *apps.Budget) (apps.Response, error) {
	fb := frame.Base
	if err := a.frameAcc.StoreU64(fb+frKey, op.Key); err != nil {
		return apps.Response{}, err
	}
	// Find the entry by walking the chain, round-tripping the cursor
	// through the stack frame.
	key, err := a.frameAcc.LoadU64(fb + frKey)
	if err != nil {
		return apps.Response{}, err
	}
	slot := a.buckets + simmem.Addr(hashKey(key, a.cfg.Buckets)*8)
	head, err := a.dataAcc.LoadU64(slot)
	if err != nil {
		return apps.Response{}, err
	}
	if err := a.frameAcc.StoreU64(fb+frCursor, head); err != nil {
		return apps.Response{}, err
	}
	var entry simmem.Addr
	for {
		if err := budget.Spend(1); err != nil {
			return apps.Response{}, err
		}
		cur, err := a.frameAcc.LoadU64(fb + frCursor)
		if err != nil {
			return apps.Response{}, err
		}
		if cur == 0 {
			break // miss
		}
		ekey, err := a.dataAcc.LoadU64(simmem.Addr(cur))
		if err != nil {
			return apps.Response{}, err
		}
		if ekey == key {
			entry = simmem.Addr(cur)
			break
		}
		next, err := a.dataAcc.LoadU64(simmem.Addr(cur) + 16)
		if err != nil {
			return apps.Response{}, err
		}
		if err := a.frameAcc.StoreU64(fb+frCursor, next); err != nil {
			return apps.Response{}, err
		}
	}

	d := apps.NewDigest()
	if op.Read {
		d.AddU64(key)
		if entry == 0 {
			// Cache miss: the pre-populated store should always hit,
			// but serve the miss as the protocol would.
			d.AddU64(0xdeadbeef)
			return d.Response(), nil
		}
		version, err := a.dataAcc.LoadU32(entry + 8)
		if err != nil {
			return apps.Response{}, err
		}
		vlen, err := a.dataAcc.LoadU32(entry + 12)
		if err != nil {
			return apps.Response{}, err
		}
		if err := budget.Spend(int(vlen)); err != nil {
			// A corrupted length field makes the response path try to
			// stream an absurd amount of data; the client gives up.
			return apps.Response{}, err
		}
		val := make([]byte, vlen)
		if err := a.dataAcc.Load(entry+entryHeaderBytes, val); err != nil {
			return apps.Response{}, err
		}
		d.AddU32(version)
		d.AddBytes(val)
		return d.Response(), nil
	}

	// SET: update in place, or insert on miss.
	if entry == 0 {
		if err := a.insert(key, op.Version); err != nil {
			return apps.Response{}, err
		}
	} else {
		if err := a.dataAcc.StoreU32(entry+8, op.Version); err != nil {
			return apps.Response{}, err
		}
		if err := a.dataAcc.Store(entry+entryHeaderBytes, trace.ValueFor(key, op.Version, a.cfg.ValueSize)); err != nil {
			return apps.Response{}, err
		}
	}
	d.AddU64(key)
	d.AddU32(op.Version)
	d.AddU64(0x5e7) // "STORED"
	return d.Response(), nil
}

// Ops exposes the workload trace (used by the TCP server example).
func (a *App) Ops() []trace.KVOp { return a.ops }

// Get performs a raw lookup outside the recorded workload, returning the
// stored version and value. The TCP demo server uses it.
func (a *App) Get(key uint64) (uint32, []byte, error) {
	budget := apps.NewBudget(a.cfg.OpBudget)
	frame, err := a.stack.Push(frameBytes)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = a.stack.Pop(frame) }()
	if err := a.frameAcc.StoreU64(frame.Base+frCursor, 0); err != nil {
		return 0, nil, err
	}
	slot := a.buckets + simmem.Addr(hashKey(key, a.cfg.Buckets)*8)
	cur, err := a.dataAcc.LoadU64(slot)
	if err != nil {
		return 0, nil, err
	}
	for cur != 0 {
		if err := budget.Spend(1); err != nil {
			return 0, nil, err
		}
		ekey, err := a.dataAcc.LoadU64(simmem.Addr(cur))
		if err != nil {
			return 0, nil, err
		}
		if ekey == key {
			version, err := a.dataAcc.LoadU32(simmem.Addr(cur) + 8)
			if err != nil {
				return 0, nil, err
			}
			vlen, err := a.dataAcc.LoadU32(simmem.Addr(cur) + 12)
			if err != nil {
				return 0, nil, err
			}
			if err := budget.Spend(int(vlen)); err != nil {
				return 0, nil, err
			}
			val := make([]byte, vlen)
			if err := a.dataAcc.Load(simmem.Addr(cur)+entryHeaderBytes, val); err != nil {
				return 0, nil, err
			}
			return version, val, nil
		}
		cur, err = a.dataAcc.LoadU64(simmem.Addr(cur) + 16)
		if err != nil {
			return 0, nil, err
		}
	}
	return 0, nil, fmt.Errorf("kvstore: key %d not found", key)
}

// Set stores a value for key at the given version outside the recorded
// workload (updating in place, inserting on miss). The TCP demo server
// uses it.
func (a *App) Set(key uint64, version uint32) error {
	budget := apps.NewBudget(a.cfg.OpBudget)
	slot := a.buckets + simmem.Addr(hashKey(key, a.cfg.Buckets)*8)
	cur, err := a.dataAcc.LoadU64(slot)
	if err != nil {
		return err
	}
	for cur != 0 {
		if err := budget.Spend(1); err != nil {
			return err
		}
		ekey, err := a.dataAcc.LoadU64(simmem.Addr(cur))
		if err != nil {
			return err
		}
		if ekey == key {
			if err := a.dataAcc.StoreU32(simmem.Addr(cur)+8, version); err != nil {
				return err
			}
			return a.dataAcc.Store(simmem.Addr(cur)+entryHeaderBytes,
				trace.ValueFor(key, version, a.cfg.ValueSize))
		}
		cur, err = a.dataAcc.LoadU64(simmem.Addr(cur) + 16)
		if err != nil {
			return err
		}
	}
	return a.insert(key, version)
}

// ValueAddr resolves the address of key's value bytes by walking its
// bucket chain through raw (unsensed, undecoded) memory — no fault can
// fire and no ECC event is emitted, so a fault injector can target a
// specific key's value without perturbing the experiment. Returns an
// error if the chain is broken (a corrupted pointer walked out of the
// heap) or the key is absent.
func (a *App) ValueAddr(key uint64) (simmem.Addr, error) {
	slot := a.buckets + simmem.Addr(hashKey(key, a.cfg.Buckets)*8)
	var buf [8]byte
	if err := a.as.ReadRaw(slot, buf[:]); err != nil {
		return 0, err
	}
	cur := simmem.Addr(getU64(buf[:]))
	for hops := 0; cur != 0; hops++ {
		if hops > a.cfg.Keys || !a.heap.Contains(cur) {
			return 0, fmt.Errorf("kvstore: chain for key %d is corrupt", key)
		}
		if err := a.as.ReadRaw(cur, buf[:]); err != nil {
			return 0, err
		}
		if getU64(buf[:]) == key {
			return cur + entryHeaderBytes, nil
		}
		if err := a.as.ReadRaw(cur+16, buf[:]); err != nil {
			return 0, err
		}
		cur = simmem.Addr(getU64(buf[:]))
	}
	return 0, fmt.Errorf("kvstore: key %d not found", key)
}

// ValueSize returns the configured value payload size.
func (a *App) ValueSize() int { return a.cfg.ValueSize }

func getU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}
