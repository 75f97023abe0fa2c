package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWilsonIntervalBasics(t *testing.T) {
	tests := []struct {
		name      string
		successes int
		trials    int
		level     float64
	}{
		{"half", 50, 100, 0.90},
		{"none", 0, 100, 0.90},
		{"all", 100, 100, 0.90},
		{"rare", 1, 10000, 0.95},
		{"single trial", 1, 1, 0.99},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := WilsonInterval(tt.successes, tt.trials, tt.level)
			if err != nil {
				t.Fatalf("WilsonInterval: %v", err)
			}
			if p.Lo < 0 || p.Hi > 1 || p.Lo > p.Hi {
				t.Errorf("interval out of order or range: [%g, %g]", p.Lo, p.Hi)
			}
			if p.P < p.Lo-1e-12 || p.P > p.Hi+1e-12 {
				t.Errorf("point estimate %g outside interval [%g, %g]", p.P, p.Lo, p.Hi)
			}
			want := float64(tt.successes) / float64(tt.trials)
			if math.Abs(p.P-want) > 1e-12 {
				t.Errorf("point estimate = %g, want %g", p.P, want)
			}
		})
	}
}

func TestWilsonIntervalErrors(t *testing.T) {
	if _, err := WilsonInterval(1, 0, 0.9); err == nil {
		t.Error("expected error for zero trials")
	}
	if _, err := WilsonInterval(-1, 10, 0.9); err == nil {
		t.Error("expected error for negative successes")
	}
	if _, err := WilsonInterval(11, 10, 0.9); err == nil {
		t.Error("expected error for successes > trials")
	}
}

func TestWilsonIntervalNarrowsWithTrials(t *testing.T) {
	small, err := WilsonInterval(5, 50, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	big, err := WilsonInterval(500, 5000, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	if big.Hi-big.Lo >= small.Hi-small.Lo {
		t.Errorf("interval did not narrow: small width %g, big width %g",
			small.Hi-small.Lo, big.Hi-big.Lo)
	}
}

func TestZForLevelFallback(t *testing.T) {
	// 0.80 is not tabulated; check against the known quantile 1.2816.
	z := zForLevel(0.80)
	if math.Abs(z-1.2815515655446004) > 1e-6 {
		t.Errorf("zForLevel(0.80) = %g, want about 1.28155", z)
	}
}

func TestWilsonIntervalProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		trials := int(b%5000) + 1
		successes := int(a) % (trials + 1)
		p, err := WilsonInterval(successes, trials, 0.90)
		if err != nil {
			return false
		}
		return p.Lo >= 0 && p.Hi <= 1 && p.Lo <= p.P+1e-12 && p.P <= p.Hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Errorf("unexpected summary: %+v", s)
	}
	if math.Abs(s.Median-2.5) > 1e-12 {
		t.Errorf("median = %g, want 2.5", s.Median)
	}
	wantStd := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("std = %g, want %g", s.Std, wantStd)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrNoData {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {-5, 10}, {110, 50},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", tt.p, got, tt.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of empty sample should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1.9, 2, 5, 9.99, 10, -1} {
		h.Add(x)
	}
	if h.Total != 7 {
		t.Errorf("total = %d, want 7", h.Total)
	}
	if h.Overflow != 2 { // 10 and -1 are out of [0,10)
		t.Errorf("overflow = %d, want 2", h.Overflow)
	}
	wantCounts := []int{2, 1, 1, 0, 1}
	for i, w := range wantCounts {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	if c := h.BinCenter(0); math.Abs(c-1) > 1e-12 {
		t.Errorf("BinCenter(0) = %g, want 1", c)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("expected error for zero bins")
	}
	if _, err := NewHistogram(10, 10, 5); err == nil {
		t.Error("expected error for empty range")
	}
}

func TestHistogramTopEdgeRounding(t *testing.T) {
	h, err := NewHistogram(0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A value just under the max must land in the last bin despite float
	// rounding in the bin computation.
	h.Add(math.Nextafter(1, 0))
	if h.Counts[2] != 1 {
		t.Errorf("top-edge sample not in last bin: %v", h.Counts)
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", tt.x, got, tt.want)
		}
	}
	if e.N() != 4 {
		t.Errorf("N = %d, want 4", e.N())
	}
	if q := e.Quantile(1); q != 4 {
		t.Errorf("Quantile(1) = %g, want 4", q)
	}
	if _, err := NewECDF(nil); err != ErrNoData {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	e, err := NewECDF(xs)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for x := -4.0; x <= 4.0; x += 0.05 {
		v := e.At(x)
		if v < prev {
			t.Fatalf("ECDF not monotone at %g: %g < %g", x, v, prev)
		}
		prev = v
	}
}

func TestFitExponentialRecoversRate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const rate = 2.0
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() / rate
	}
	fit, err := FitExponentialMLE(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Rate-rate)/rate > 0.1 {
		t.Errorf("recovered rate %g, want about %g", fit.Rate, rate)
	}
	if fit.KS > 0.05 {
		t.Errorf("KS = %g for exponential data, want small", fit.KS)
	}
}

func TestPreferredFitClassifies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const horizon = 40.0

	exp := make([]float64, 2000)
	for i := range exp {
		exp[i] = rng.ExpFloat64() * 3 // mean 3, far from uniform on [0,40]
	}
	fit, err := PreferredFit(exp, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Kind != FitExponential {
		t.Errorf("exponential data classified as %v", fit.Kind)
	}

	uni := make([]float64, 2000)
	for i := range uni {
		uni[i] = rng.Float64() * horizon
	}
	fit, err = PreferredFit(uni, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Kind != FitUniform {
		t.Errorf("uniform data classified as %v", fit.Kind)
	}
}

func TestFitErrorsOnEmpty(t *testing.T) {
	if _, err := FitExponentialMLE(nil); err == nil {
		t.Error("expected error for empty sample")
	}
	if _, err := FitUniformRange(nil, 1); err == nil {
		t.Error("expected error for empty sample")
	}
	if _, err := PreferredFit(nil, 1); err == nil {
		t.Error("expected error for empty sample")
	}
}

func TestFitKindString(t *testing.T) {
	if FitExponential.String() != "exponential" || FitUniform.String() != "uniform" {
		t.Error("unexpected FitKind strings")
	}
	if FitKind(0).String() != "unknown" {
		t.Error("zero FitKind should be unknown")
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	k, err := NewKDE(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Trapezoidal integration over a wide range should be close to 1.
	const lo, hi, n = -8.0, 8.0, 1600
	var integral float64
	step := (hi - lo) / n
	for i := 0; i <= n; i++ {
		w := step
		if i == 0 || i == n {
			w = step / 2
		}
		integral += k.At(lo+float64(i)*step) * w
	}
	if math.Abs(integral-1) > 0.02 {
		t.Errorf("KDE integral = %g, want about 1", integral)
	}
}

func TestKDEDegenerateSample(t *testing.T) {
	k, err := NewKDE([]float64{0.5, 0.5, 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.bandwidth <= 0 {
		t.Error("bandwidth must be positive for a degenerate sample")
	}
	if k.At(0.5) <= k.At(0.9) {
		t.Error("density should peak at the repeated value")
	}
}

func TestKDEProfile(t *testing.T) {
	k, err := NewKDE([]float64{0.2, 0.25, 0.3}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	prof := k.Profile(0, 1, 21)
	if len(prof) != 21 {
		t.Fatalf("profile length = %d, want 21", len(prof))
	}
	maxV := 0.0
	for _, v := range prof {
		if v < 0 || v > 1 {
			t.Fatalf("profile value out of [0,1]: %g", v)
		}
		if v > maxV {
			maxV = v
		}
	}
	if math.Abs(maxV-1) > 1e-12 {
		t.Errorf("profile max = %g, want 1", maxV)
	}
	if k.Profile(0, 1, 0) != nil {
		t.Error("zero-point profile should be nil")
	}
}

func TestProportionString(t *testing.T) {
	p, err := WilsonInterval(1, 100, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	if s := p.String(); s == "" {
		t.Error("empty String()")
	}
}
