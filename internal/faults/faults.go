// Package faults models when memory errors occur and what kind they are:
// the error-model axis of the paper's evaluation (Section VI-A). Rates are
// expressed per server per month, following the field data the paper
// builds on (Schroeder et al., 2000 errors/server/month), and arrivals are
// drawn from a Poisson process on the simulation's virtual clock.
//
// Less-tested DRAM — the cost lever of the paper's "L" design points — is
// modelled as a multiplier on the arrival rate, since skipping vendor
// test-and-burn-in raises the population of weak cells without changing
// the failure physics.
package faults

import (
	"fmt"
	"math/rand"
	"time"

	"hrmsim/internal/dram"
)

// Month is the accounting period used for error rates and availability.
const Month = 30 * 24 * time.Hour

// Class distinguishes the two main memory error types (Section II-A).
type Class int

// Error classes.
const (
	// Soft errors are transient random flips; an overwrite clears them.
	Soft Class = iota + 1
	// Hard errors are recurring: the affected cells keep failing until
	// the page is retired (modelled as stuck-at bits).
	Hard
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Soft:
		return "soft"
	case Hard:
		return "hard"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Spec describes one error to inject.
type Spec struct {
	// Class is soft or hard.
	Class Class
	// Bits is how many distinct bits of the target byte flip (the
	// paper's multi-bit errors repeat the single-bit flip with
	// different bit indices — Section IV-A).
	Bits int
	// Domain, when non-nil, makes this a correlated fault: instead of a
	// single byte, a sample of addresses across the whole failed
	// structure (row/column/bank/chip/DIMM) is corrupted.
	Domain *dram.FaultDomain
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Class != Soft && s.Class != Hard {
		return fmt.Errorf("faults: invalid class %d", int(s.Class))
	}
	if s.Bits < 1 || s.Bits > 8 {
		return fmt.Errorf("faults: bits per byte must be in [1,8], got %d", s.Bits)
	}
	return nil
}

// String renders the spec the way the paper's figures label error types
// (e.g. "single-bit soft", "2-bit hard").
func (s Spec) String() string {
	var n string
	switch s.Bits {
	case 1:
		n = "single-bit"
	case 2:
		n = "2-bit"
	default:
		n = fmt.Sprintf("%d-bit", s.Bits)
	}
	out := n + " " + s.Class.String()
	if s.Domain != nil {
		out += " (" + s.Domain.Kind.String() + ")"
	}
	return out
}

// The three error types of the paper's WebSearch severity analysis
// (Fig. 6).
var (
	// SingleBitSoft is a transient single-bit flip.
	SingleBitSoft = Spec{Class: Soft, Bits: 1}
	// SingleBitHard is a recurring single-bit fault.
	SingleBitHard = Spec{Class: Hard, Bits: 1}
	// DoubleBitHard is a recurring two-bit fault in one byte.
	DoubleBitHard = Spec{Class: Hard, Bits: 2}
)

// RateModel parameterizes the error arrival process for one server.
type RateModel struct {
	// ErrorsPerMonth is the base rate of memory error occurrences per
	// server per month on normally tested DRAM.
	ErrorsPerMonth float64
	// SoftFraction is the share of arrivals that are soft (transient).
	SoftFraction float64
	// MultiBitFraction is the share of hard arrivals affecting two bits
	// instead of one.
	MultiBitFraction float64
	// LessTestedMultiplier scales the rate for less-tested DRAM
	// (1 = fully tested). The paper's Table 6 explores a cost-vs-rate
	// band for this class of device.
	LessTestedMultiplier float64
}

// DefaultRates returns the paper's Table 6 error model: 2000 errors per
// server per month (from field studies), treated as soft for the
// availability analysis, on fully tested DRAM.
func DefaultRates() RateModel {
	return RateModel{
		ErrorsPerMonth:       2000,
		SoftFraction:         1.0,
		MultiBitFraction:     0,
		LessTestedMultiplier: 1,
	}
}

// Validate checks the model.
func (m RateModel) Validate() error {
	switch {
	case m.ErrorsPerMonth < 0:
		return fmt.Errorf("faults: negative error rate %g", m.ErrorsPerMonth)
	case m.SoftFraction < 0 || m.SoftFraction > 1:
		return fmt.Errorf("faults: soft fraction %g outside [0,1]", m.SoftFraction)
	case m.MultiBitFraction < 0 || m.MultiBitFraction > 1:
		return fmt.Errorf("faults: multi-bit fraction %g outside [0,1]", m.MultiBitFraction)
	case m.LessTestedMultiplier <= 0:
		return fmt.Errorf("faults: less-tested multiplier must be positive, got %g", m.LessTestedMultiplier)
	}
	return nil
}

// EffectiveRate returns the errors-per-month rate including the
// less-tested multiplier.
func (m RateModel) EffectiveRate() float64 {
	return m.ErrorsPerMonth * m.LessTestedMultiplier
}

// Arrival is one scheduled error occurrence.
type Arrival struct {
	At   time.Duration
	Spec Spec
}

// SampleSpec draws an error type according to the model's mix.
func (m RateModel) SampleSpec(rng *rand.Rand) Spec {
	if rng.Float64() < m.SoftFraction {
		return SingleBitSoft
	}
	if rng.Float64() < m.MultiBitFraction {
		return DoubleBitHard
	}
	return SingleBitHard
}

// Arrivals draws a Poisson arrival sequence over the horizon. The result
// is sorted by time.
func (m RateModel) Arrivals(rng *rand.Rand, horizon time.Duration) ([]Arrival, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("faults: horizon must be positive, got %v", horizon)
	}
	rate := m.EffectiveRate() // per Month
	if rate == 0 {
		return nil, nil
	}
	var out []Arrival
	t := time.Duration(0)
	for {
		// Exponential inter-arrival with mean Month/rate.
		dt := time.Duration(rng.ExpFloat64() / rate * float64(Month))
		if dt <= 0 {
			dt = 1
		}
		t += dt
		if t >= horizon {
			return out, nil
		}
		out = append(out, Arrival{At: t, Spec: m.SampleSpec(rng)})
	}
}
