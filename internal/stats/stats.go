// Package stats provides the small statistical toolkit used by the
// characterization experiments: binomial confidence intervals, summary
// statistics, histograms, empirical CDFs, kernel density estimates, and
// goodness-of-fit diagnostics for exponential and uniform distributions.
//
// The paper reports crash probabilities with 90% confidence intervals
// (Figs. 3a, 4a, 6a), fits time-to-outcome distributions (Fig. 5a), and
// draws safe-ratio densities (Fig. 5b); this package implements exactly the
// machinery those reproductions need, on top of the standard library only.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoData is returned by estimators that require at least one sample.
var ErrNoData = errors.New("stats: no data")

// Proportion is an estimated probability with a confidence interval,
// typically a crash probability out of a number of injection trials.
type Proportion struct {
	Successes int     // number of trials with the outcome of interest
	Trials    int     // total number of trials
	P         float64 // point estimate Successes/Trials
	Lo, Hi    float64 // confidence interval bounds
	Level     float64 // confidence level, e.g. 0.90
}

// String renders the proportion as a percentage with its interval.
func (p Proportion) String() string {
	return fmt.Sprintf("%.2f%% [%.2f%%, %.2f%%] (%d/%d)",
		p.P*100, p.Lo*100, p.Hi*100, p.Successes, p.Trials)
}

// zForLevel returns the two-sided standard-normal quantile for a confidence
// level. Common levels are tabulated; others fall back to a numerical
// inverse via bisection on the normal CDF.
func zForLevel(level float64) float64 {
	switch level {
	case 0.90:
		return 1.6448536269514722
	case 0.95:
		return 1.959963984540054
	case 0.99:
		return 2.5758293035489004
	}
	// Invert Phi((1+level)/2) by bisection; the CDF is monotone.
	target := (1 + level) / 2
	lo, hi := 0.0, 10.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if normCDF(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// normCDF is the standard normal cumulative distribution function.
func normCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// WilsonInterval computes the Wilson score interval for a binomial
// proportion. It behaves sensibly at the extremes (0 or all successes),
// unlike the normal approximation, which matters because many injection
// campaigns observe zero crashes in a region.
func WilsonInterval(successes, trials int, level float64) (Proportion, error) {
	if trials <= 0 {
		return Proportion{}, fmt.Errorf("stats: trials must be positive, got %d", trials)
	}
	if successes < 0 || successes > trials {
		return Proportion{}, fmt.Errorf("stats: successes %d out of range [0,%d]", successes, trials)
	}
	z := zForLevel(level)
	n := float64(trials)
	p := float64(successes) / n
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
	lo := center - half
	hi := center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return Proportion{
		Successes: successes,
		Trials:    trials,
		P:         p,
		Lo:        lo,
		Hi:        hi,
		Level:     level,
	}, nil
}

// Summary holds the standard moments and order statistics of a sample.
// The JSON field names are part of the `hrmsim -json` result schema
// (OBSERVABILITY.md) — change them only with a schema_version bump.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"` // sample standard deviation (n-1 denominator)
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Median float64 `json:"median"`
}

// Summarize computes a Summary of xs. It returns ErrNoData for an empty
// sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrNoData
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	s.Median = Percentile(xs, 50)
	return s, nil
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns NaN for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram is a fixed-bin histogram over [Min, Max).
type Histogram struct {
	Min, Max float64
	Counts   []int
	Total    int
	Overflow int // samples outside [Min, Max)
}

// NewHistogram creates a histogram with the given bounds and bin count.
func NewHistogram(min, max float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: bins must be positive, got %d", bins)
	}
	if !(min < max) {
		return nil, fmt.Errorf("stats: invalid histogram range [%g, %g)", min, max)
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}, nil
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.Total++
	if x < h.Min || x >= h.Max {
		h.Overflow++
		return
	}
	i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
	if i >= len(h.Counts) { // guard float rounding at the top edge
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(i)+0.5)*w
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	xs []float64 // sorted
}

// NewECDF builds an ECDF from a sample (which it copies and sorts).
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &ECDF{xs: sorted}, nil
}

// At returns the fraction of the sample that is <= x.
func (e *ECDF) At(x float64) float64 {
	// sort.SearchFloat64s returns the first index with xs[i] >= x; we want
	// count of xs[i] <= x, so search for the first index > x.
	i := sort.Search(len(e.xs), func(i int) bool { return e.xs[i] > x })
	return float64(i) / float64(len(e.xs))
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.xs) }

// Quantile returns the q-th quantile (0..1) of the sample.
func (e *ECDF) Quantile(q float64) float64 {
	return Percentile(e.xs, q*100)
}
