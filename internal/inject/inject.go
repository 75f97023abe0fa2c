// Package inject implements the paper's memory error emulation framework
// (Section IV-A, Algorithm 1(a)): selecting a valid byte-aligned
// application address, flipping one or more bits for soft errors, or
// installing stuck-at faults for hard errors (our stuck-bit model is
// strictly stronger than the paper's 30 ms reapplication loop — the error
// reasserts on every sense). Correlated multi-address faults expand a DRAM
// fault domain (failed row/column/bank/chip) onto the application's
// regions.
package inject

import (
	"errors"
	"fmt"
	"math/rand"

	"hrmsim/internal/dram"
	"hrmsim/internal/faults"
	"hrmsim/internal/simmem"
)

// Injection records what was injected, for classification and debugging.
type Injection struct {
	// Spec is the error type injected.
	Spec faults.Spec
	// Targets are the corrupted byte addresses (one for ordinary
	// errors; many for correlated domain faults).
	Targets []Target
	// Region is the region containing the (first) target.
	Region *simmem.Region
}

// Target is one corrupted byte.
type Target struct {
	Addr simmem.Addr
	// Bits are the flipped (or stuck) bit indices within the byte.
	Bits []int
}

// At injects an error of the given spec at a specific byte address. Bits
// are chosen uniformly without replacement, per Algorithm 1(a) (multi-bit
// errors repeat the flip with different bit indices). Soft errors XOR the
// stored bits; hard errors stick the bits at their flipped values.
func At(as *simmem.AddressSpace, rng *rand.Rand, addr simmem.Addr, spec faults.Spec) (Injection, error) {
	if err := spec.Validate(); err != nil {
		return Injection{}, err
	}
	var region *simmem.Region
	for _, r := range as.Regions() {
		if r.Contains(addr) {
			region = r
			break
		}
	}
	if region == nil {
		return Injection{}, &simmem.Fault{Kind: simmem.FaultUnmapped, Addr: addr}
	}
	target, err := corruptByte(as, rng, addr, spec)
	if err != nil {
		return Injection{}, err
	}
	return Injection{Spec: spec, Targets: []Target{target}, Region: region}, nil
}

// corruptByte flips/sticks spec.Bits distinct bits of the byte at addr.
func corruptByte(as *simmem.AddressSpace, rng *rand.Rand, addr simmem.Addr, spec faults.Spec) (Target, error) {
	bits := rng.Perm(8)[:spec.Bits]
	var orig [1]byte
	if err := as.ReadRaw(addr, orig[:]); err != nil {
		return Target{}, err
	}
	for _, b := range bits {
		switch spec.Class {
		case faults.Soft:
			if err := as.FlipBit(addr, b); err != nil {
				return Target{}, err
			}
		case faults.Hard:
			// Stick the cell at the erroneous (flipped) value.
			flipped := int(orig[0]>>b&1) ^ 1
			if err := as.StickBit(addr, b, flipped); err != nil {
				return Target{}, err
			}
		}
	}
	return Target{Addr: addr, Bits: bits}, nil
}

// ErrNoTarget reports that the region filter accepts no used byte.
var ErrNoTarget = errors.New("inject: no used bytes match the region filter")

// Random injects an error of the given spec at a uniformly random used
// byte of the regions accepted by filter (all regions when nil) — the
// getMappedAddr() of Algorithm 1(a). It is as.SampleAddr followed by At
// on one generator; a caller that needs the address before it commits
// to injecting makes the same two calls.
func Random(as *simmem.AddressSpace, rng *rand.Rand, spec faults.Spec, filter func(*simmem.Region) bool) (Injection, error) {
	addr, ok := as.SampleAddr(rng, filter)
	if !ok {
		return Injection{}, ErrNoTarget
	}
	return At(as, rng, addr, spec)
}

// KindFilter returns a region filter accepting one region kind.
func KindFilter(kind simmem.RegionKind) func(*simmem.Region) bool {
	return func(r *simmem.Region) bool { return r.Kind() == kind }
}

// PhysLayout maps a DRAM geometry's flat physical offsets onto the used
// bytes of an address space's regions, in mapping order — the glue that
// lets device-level fault domains corrupt application data.
type PhysLayout struct {
	as   *simmem.AddressSpace
	geom dram.Geometry
}

// NewPhysLayout builds the mapping. The regions' combined used bytes must
// fit in the geometry's capacity.
func NewPhysLayout(as *simmem.AddressSpace, geom dram.Geometry) (*PhysLayout, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	total := int64(0)
	for _, r := range as.Regions() {
		total += int64(r.Used())
	}
	if total > geom.Capacity() {
		return nil, fmt.Errorf("inject: regions use %d bytes but geometry capacity is %d",
			total, geom.Capacity())
	}
	return &PhysLayout{as: as, geom: geom}, nil
}

// AddrForOffset maps a physical byte offset to a simulated address, or
// false if that physical byte holds no application data.
func (p *PhysLayout) AddrForOffset(off int64) (simmem.Addr, bool) {
	for _, r := range p.as.Regions() {
		if off < int64(r.Used()) {
			return r.Base() + simmem.Addr(off), true
		}
		off -= int64(r.Used())
	}
	return 0, false
}

// Domain injects a correlated hardware fault: it samples up to maxBytes
// byte positions of the failed structure, maps them through the physical
// layout, and corrupts every one that holds application data (hard errors
// stick, matching real device-structure failures). It returns the
// injection with all affected targets; Targets may be empty if the failed
// structure held no application data.
func Domain(p *PhysLayout, rng *rand.Rand, d dram.FaultDomain, spec faults.Spec, maxBytes int) (Injection, error) {
	if err := spec.Validate(); err != nil {
		return Injection{}, err
	}
	if maxBytes <= 0 {
		return Injection{}, fmt.Errorf("inject: maxBytes must be positive, got %d", maxBytes)
	}
	offs, err := p.geom.SampleOffsets(d, rng, maxBytes)
	if err != nil {
		return Injection{}, err
	}
	inj := Injection{Spec: spec}
	inj.Spec.Domain = &d
	for _, off := range offs {
		addr, ok := p.AddrForOffset(off)
		if !ok {
			continue
		}
		t, err := corruptByte(p.as, rng, addr, spec)
		if err != nil {
			return Injection{}, err
		}
		inj.Targets = append(inj.Targets, t)
		if inj.Region == nil {
			for _, r := range p.as.Regions() {
				if r.Contains(addr) {
					inj.Region = r
					break
				}
			}
		}
	}
	return inj, nil
}
