package stats

import (
	"math"
)

// FitKind names a candidate distribution family for time-to-outcome data.
type FitKind int

// Distribution families used by the Fig. 5a analysis: the paper observes
// that crashes arrive roughly exponentially ("quick-to-crash") while
// incorrect results arrive roughly uniformly over the run ("periodically
// incorrect").
const (
	FitExponential FitKind = iota + 1
	FitUniform
)

// String returns the family name.
func (k FitKind) String() string {
	switch k {
	case FitExponential:
		return "exponential"
	case FitUniform:
		return "uniform"
	default:
		return "unknown"
	}
}

// Fit is the result of fitting one family to a sample.
type Fit struct {
	Kind FitKind
	// Rate is the MLE rate parameter for the exponential family
	// (1/mean); Hi is the upper bound for the uniform family.
	Rate float64
	Hi   float64
	// KS is the Kolmogorov–Smirnov statistic: the maximum absolute
	// difference between the sample ECDF and the fitted CDF. Smaller is
	// a better fit.
	KS float64
}

// FitExponentialMLE fits an exponential distribution to xs by maximum
// likelihood and reports the KS distance.
func FitExponentialMLE(xs []float64) (Fit, error) {
	s, err := Summarize(xs)
	if err != nil {
		return Fit{}, err
	}
	rate := 0.0
	if s.Mean > 0 {
		rate = 1 / s.Mean
	}
	e, err := NewECDF(xs)
	if err != nil {
		return Fit{}, err
	}
	cdf := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return 1 - math.Exp(-rate*x)
	}
	return Fit{Kind: FitExponential, Rate: rate, KS: ksDistance(e, cdf)}, nil
}

// FitUniformRange fits a Uniform(0, hi) distribution to xs, taking hi as
// the known observation horizon (for Fig. 5a this is the run length), and
// reports the KS distance.
func FitUniformRange(xs []float64, hi float64) (Fit, error) {
	e, err := NewECDF(xs)
	if err != nil {
		return Fit{}, err
	}
	if hi <= 0 {
		hi = e.Quantile(1)
	}
	cdf := func(x float64) float64 {
		switch {
		case x <= 0:
			return 0
		case x >= hi:
			return 1
		default:
			return x / hi
		}
	}
	return Fit{Kind: FitUniform, Hi: hi, KS: ksDistance(e, cdf)}, nil
}

// ksDistance computes the Kolmogorov–Smirnov statistic between the sample
// ECDF and a model CDF, evaluating at each sample point (where the ECDF
// jumps, both one-sided limits are considered).
func ksDistance(e *ECDF, cdf func(float64) float64) float64 {
	n := float64(len(e.xs))
	var d float64
	for i, x := range e.xs {
		f := cdf(x)
		hi := math.Abs(float64(i+1)/n - f)
		lo := math.Abs(float64(i)/n - f)
		if hi > d {
			d = hi
		}
		if lo > d {
			d = lo
		}
	}
	return d
}

// PreferredFit fits both families over horizon hi and returns the one with
// the smaller KS distance. It implements the Fig. 5a classification of
// "quick-to-crash" (exponential) versus "periodically incorrect" (uniform)
// outcome timing.
func PreferredFit(xs []float64, hi float64) (Fit, error) {
	fe, err := FitExponentialMLE(xs)
	if err != nil {
		return Fit{}, err
	}
	fu, err := FitUniformRange(xs, hi)
	if err != nil {
		return Fit{}, err
	}
	if fe.KS <= fu.KS {
		return fe, nil
	}
	return fu, nil
}

// KDE is a one-dimensional Gaussian kernel density estimate, used to draw
// the safe-ratio "violin" distributions of Fig. 5b.
type KDE struct {
	xs        []float64
	bandwidth float64
}

// NewKDE builds a KDE over xs using Silverman's rule-of-thumb bandwidth
// when bw <= 0.
func NewKDE(xs []float64, bw float64) (*KDE, error) {
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	if bw <= 0 {
		s, err := Summarize(xs)
		if err != nil {
			return nil, err
		}
		sigma := s.Std
		if sigma == 0 {
			sigma = 1e-3 // degenerate sample: draw a narrow spike
		}
		bw = 1.06 * sigma * math.Pow(float64(len(xs)), -0.2)
	}
	return &KDE{xs: append([]float64(nil), xs...), bandwidth: bw}, nil
}

// At evaluates the density estimate at x.
func (k *KDE) At(x float64) float64 {
	const invSqrt2Pi = 0.3989422804014327
	var sum float64
	for _, xi := range k.xs {
		u := (x - xi) / k.bandwidth
		sum += invSqrt2Pi * math.Exp(-0.5*u*u)
	}
	return sum / (float64(len(k.xs)) * k.bandwidth)
}

// Profile evaluates the density at n evenly spaced points across [lo, hi]
// and returns the values normalized so the maximum is 1 (convenient for
// rendering violins of differing scales side by side).
func (k *KDE) Profile(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	vals := make([]float64, n)
	maxV := 0.0
	for i := 0; i < n; i++ {
		x := lo
		if n > 1 {
			x = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		vals[i] = k.At(x)
		if vals[i] > maxV {
			maxV = vals[i]
		}
	}
	if maxV > 0 {
		for i := range vals {
			vals[i] /= maxV
		}
	}
	return vals
}
