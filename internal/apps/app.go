// Package apps defines the interface between data-intensive applications
// built on simulated memory and the characterization engine, plus shared
// plumbing (response digests, runaway-loop watchdogs, crash-worthy error
// classification).
//
// The three applications of the paper's case study live in subpackages:
// websearch (interactive web search over a read-only in-memory index),
// kvstore (a Memcached-style in-memory key–value store), and graphmine (a
// GraphLab-style framework running TunkRank). Each stores every data
// structure it serves from in a simmem.AddressSpace and manipulates it
// exclusively through simulated loads and stores, so injected memory
// errors corrupt exactly the bytes the application logic consumes.
package apps

import (
	"errors"
	"fmt"

	"hrmsim/internal/simmem"
)

// Size selects how large a synthetic application build is. Each
// application package maps it to its own geometry (SizedConfig).
type Size int

// Workload sizes.
const (
	// SizeSmall builds tiny instances for fast iteration and tests.
	SizeSmall Size = iota
	// SizeMedium matches the scale used by the paper-reproduction
	// experiments (the default).
	SizeMedium
	// SizeLarge builds bigger instances for longer campaigns.
	SizeLarge
)

// Response is the digest of one request's output, compared against a
// golden (error-free) run to detect incorrect results.
type Response struct {
	// Digest is an FNV-1a hash of the request's observable output.
	Digest uint64
}

// App is one application instance bound to an address space. Serve must be
// deterministic for a given build: the campaign engine records a golden
// run and compares digests request by request.
type App interface {
	// Name identifies the application ("websearch", "kvstore",
	// "graphmine").
	Name() string
	// Space returns the simulated memory the application runs on.
	Space() *simmem.AddressSpace
	// NumRequests is the length of the client workload.
	NumRequests() int
	// Serve executes request i and returns the response digest. Any
	// returned error is crash-worthy: a memory fault, a failed internal
	// invariant, or a runaway-loop watchdog.
	Serve(i int) (Response, error)
}

// Builder constructs fresh, identical application instances — one per
// injection trial, so every trial starts from clean memory (step 1 of the
// paper's Fig. 2 loop). Implementations pre-generate their synthetic
// datasets once so Build only pays serialization cost.
type Builder interface {
	// AppName identifies the application this builder constructs.
	AppName() string
	// Build materializes a fresh instance.
	Build() (App, error)
}

// SnapshotApp is an App that supports the build-once, restore-per-trial
// lifecycle: Snapshot captures the instance's complete state (simulated
// memory via simmem.Snapshot plus any host-side mutable state — stack
// depth, allocator bookkeeping), and Reset rolls everything back so the
// instance is indistinguishable from a fresh Build at the captured
// point. The campaign engine snapshots once per worker and resets
// before every trial.
type SnapshotApp interface {
	App
	// Snapshot captures the current state as the reset point,
	// superseding any previous capture.
	Snapshot() error
	// Reset restores the captured state, returning the number of
	// simulated pages rolled back. It fails if Snapshot was never
	// called.
	Reset() (dirtyPages int, err error)
}

// Checkpoint is the reset point the case-study applications' Snapshot and
// Reset share: a capture of the address space plus the simulated stack's
// depth, the host-side state every one of them mutates.
type Checkpoint struct {
	mem *simmem.Snapshot
	sp  int
}

// Capture makes the current state of as and stack the reset point.
func (c *Checkpoint) Capture(as *simmem.AddressSpace, stack *simmem.Stack) {
	c.mem, c.sp = as.Snapshot(), stack.Depth()
}

// Restore rolls memory and stack back to the capture and returns the
// number of pages rolled back; app prefixes its errors.
func (c *Checkpoint) Restore(app string, stack *simmem.Stack) (int, error) {
	if c.mem == nil {
		return 0, fmt.Errorf("%s: Reset before Snapshot", app)
	}
	n, err := c.mem.Restore()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", app, err)
	}
	return n, stack.Rewind(c.sp)
}

// SnapshotBuilder is the snapshot capability of a Builder. Campaigns
// require it: the engine reuses one instance per worker across trials
// and rejects a builder that cannot snapshot.
type SnapshotBuilder interface {
	Builder
	// BuildSnapshot materializes a fresh snapshot-capable instance.
	BuildSnapshot() (SnapshotApp, error)
}

// Crash-worthy application errors. Memory faults (simmem.Fault) are the
// third member of this family.
var (
	// ErrBudgetExceeded is returned when a request exceeds its operation
	// budget — the simulated equivalent of a corrupted loop bound or
	// pointer cycle hanging the process until the client declares it
	// dead.
	ErrBudgetExceeded = errors.New("apps: request operation budget exceeded")
	// ErrAssert is returned when an internal invariant that a native
	// implementation would abort() on is violated.
	ErrAssert = errors.New("apps: application invariant violated")
)

// Assertf returns an ErrAssert-wrapped error.
func Assertf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrAssert}, args...)...)
}

// Budget is a per-request operation watchdog.
type Budget struct {
	left int
}

// NewBudget creates a budget of n operations.
func NewBudget(n int) *Budget { return &Budget{left: n} }

// Spend consumes n operations, returning ErrBudgetExceeded when the budget
// runs out.
func (b *Budget) Spend(n int) error {
	b.left -= n
	if b.left < 0 {
		return ErrBudgetExceeded
	}
	return nil
}

// Remaining returns the operations left.
func (b *Budget) Remaining() int { return b.left }

// Digest is an incremental FNV-1a 64-bit hash for building Responses.
type Digest struct {
	h uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewDigest returns an initialized digest.
func NewDigest() *Digest { return &Digest{h: fnvOffset} }

// AddU64 folds a 64-bit value into the digest.
func (d *Digest) AddU64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= fnvPrime
		v >>= 8
	}
}

// AddU32 folds a 32-bit value into the digest.
func (d *Digest) AddU32(v uint32) { d.AddU64(uint64(v)) }

// AddBytes folds raw bytes into the digest.
func (d *Digest) AddBytes(b []byte) {
	for _, x := range b {
		d.h ^= uint64(x)
		d.h *= fnvPrime
	}
}

// Sum returns the current hash value.
func (d *Digest) Sum() uint64 { return d.h }

// Response returns the digest as a Response.
func (d *Digest) Response() Response { return Response{Digest: d.h} }

// IsCrash reports whether an error from Serve counts as outcome (2.3) in
// the paper's taxonomy — an application or system crash.
func IsCrash(err error) bool {
	return err != nil &&
		(simmem.IsFault(err) || errors.Is(err, ErrBudgetExceeded) || errors.Is(err, ErrAssert))
}
