package faults

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"hrmsim/internal/dram"
)

func TestSpecValidate(t *testing.T) {
	for _, s := range []Spec{SingleBitSoft, SingleBitHard, DoubleBitHard} {
		if err := s.Validate(); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
	if err := (Spec{Class: Soft, Bits: 0}).Validate(); err == nil {
		t.Error("zero bits accepted")
	}
	if err := (Spec{Class: Soft, Bits: 9}).Validate(); err == nil {
		t.Error("nine bits accepted")
	}
	if err := (Spec{Class: Class(9), Bits: 1}).Validate(); err == nil {
		t.Error("bad class accepted")
	}
}

func TestSpecString(t *testing.T) {
	tests := []struct {
		s    Spec
		want string
	}{
		{SingleBitSoft, "single-bit soft"},
		{SingleBitHard, "single-bit hard"},
		{DoubleBitHard, "2-bit hard"},
		{Spec{Class: Hard, Bits: 3}, "3-bit hard"},
		{Spec{Class: Hard, Bits: 1, Domain: &dram.FaultDomain{Kind: dram.DomainRow}},
			"single-bit hard (row)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
	if Soft.String() != "soft" || Hard.String() != "hard" {
		t.Error("class names wrong")
	}
}

func TestRateModelValidate(t *testing.T) {
	if err := DefaultRates().Validate(); err != nil {
		t.Fatalf("default rates invalid: %v", err)
	}
	bad := []RateModel{
		{ErrorsPerMonth: -1, SoftFraction: 0.5, LessTestedMultiplier: 1},
		{ErrorsPerMonth: 1, SoftFraction: 1.5, LessTestedMultiplier: 1},
		{ErrorsPerMonth: 1, SoftFraction: 0.5, MultiBitFraction: -0.1, LessTestedMultiplier: 1},
		{ErrorsPerMonth: 1, SoftFraction: 0.5, LessTestedMultiplier: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestDefaultRatesMatchPaper(t *testing.T) {
	m := DefaultRates()
	if m.ErrorsPerMonth != 2000 {
		t.Errorf("ErrorsPerMonth = %g, want 2000 (Table 6)", m.ErrorsPerMonth)
	}
	if m.EffectiveRate() != 2000 {
		t.Errorf("EffectiveRate = %g, want 2000", m.EffectiveRate())
	}
}

func TestLessTestedMultiplier(t *testing.T) {
	m := DefaultRates()
	m.LessTestedMultiplier = 5
	if m.EffectiveRate() != 10000 {
		t.Errorf("EffectiveRate = %g, want 10000", m.EffectiveRate())
	}
}

func TestArrivalsPoissonCount(t *testing.T) {
	m := DefaultRates()
	rng := rand.New(rand.NewSource(1))
	arr, err := m.Arrivals(rng, Month)
	if err != nil {
		t.Fatal(err)
	}
	// Expect about 2000 arrivals; Poisson sd ~ 45, allow 5 sigma.
	if n := float64(len(arr)); math.Abs(n-2000) > 225 {
		t.Errorf("arrivals over a month = %d, want about 2000", len(arr))
	}
	// Sorted, in-horizon, valid specs.
	if !sort.SliceIsSorted(arr, func(i, j int) bool { return arr[i].At < arr[j].At }) {
		t.Error("arrivals not sorted")
	}
	for _, a := range arr {
		if a.At < 0 || a.At >= Month {
			t.Fatalf("arrival at %v outside horizon", a.At)
		}
		if err := a.Spec.Validate(); err != nil {
			t.Fatalf("invalid arrival spec: %v", err)
		}
	}
}

func TestArrivalsMixFractions(t *testing.T) {
	m := RateModel{
		ErrorsPerMonth:       5000,
		SoftFraction:         0.6,
		MultiBitFraction:     0.5,
		LessTestedMultiplier: 1,
	}
	rng := rand.New(rand.NewSource(2))
	arr, err := m.Arrivals(rng, Month)
	if err != nil {
		t.Fatal(err)
	}
	var soft, hard1, hard2 int
	for _, a := range arr {
		switch {
		case a.Spec.Class == Soft:
			soft++
		case a.Spec.Bits == 1:
			hard1++
		default:
			hard2++
		}
	}
	total := float64(len(arr))
	if f := float64(soft) / total; math.Abs(f-0.6) > 0.05 {
		t.Errorf("soft fraction = %.3f, want about 0.6", f)
	}
	hardTotal := float64(hard1 + hard2)
	if f := float64(hard2) / hardTotal; math.Abs(f-0.5) > 0.08 {
		t.Errorf("multi-bit fraction of hard = %.3f, want about 0.5", f)
	}
}

func TestArrivalsZeroRate(t *testing.T) {
	m := RateModel{ErrorsPerMonth: 0, SoftFraction: 1, LessTestedMultiplier: 1}
	rng := rand.New(rand.NewSource(3))
	arr, err := m.Arrivals(rng, Month)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != 0 {
		t.Errorf("zero rate produced %d arrivals", len(arr))
	}
}

func TestArrivalsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := DefaultRates().Arrivals(rng, 0); err == nil {
		t.Error("zero horizon accepted")
	}
	bad := RateModel{ErrorsPerMonth: -1, LessTestedMultiplier: 1}
	if _, err := bad.Arrivals(rng, Month); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	m := DefaultRates()
	a1, err := m.Arrivals(rand.New(rand.NewSource(7)), 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.Arrivals(rand.New(rand.NewSource(7)), 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) {
		t.Fatalf("lengths differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
}
