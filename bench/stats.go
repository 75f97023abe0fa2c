package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample. It sorts
// a copy, so callers keep their sample order. (internal/stats has a
// Percentile; the ruler keeps its own arithmetic so that a change to the
// code under test cannot change what the numbers mean.)
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= len(s) {
		hi = len(s) - 1
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quietShare is the quartile a run's slices are reduced at. On a shared
// host a neighbour's burst slows a stretch of a run by up to half for tens
// of seconds and nothing ever speeds one up, so the noise is one-sided: the
// median of the slices moves as soon as a burst covers half the run, the
// quartile on the good side only when it covers three quarters of it.
const quietShare = 0.25

// quietLow reduces per-slice times or costs to the run's value, quietHigh
// per-slice rates: what the program did in the run's quieter stretches.
func quietLow(xs []float64) float64  { return quantile(xs, quietShare) }
func quietHigh(xs []float64) float64 { return quantile(xs, 1-quietShare) }

// blockMax cuts xs, in order, into blocks of n and returns each whole
// block's largest value (a short last block is dropped; fewer than n
// values make one block).
func blockMax(xs []float64, n int) []float64 {
	if len(xs) < n {
		n = len(xs)
	}
	var out []float64
	for i := 0; n > 0 && i+n <= len(xs); i += n {
		out = append(out, maxOf(xs[i:i+n]))
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// window holds the round-trip samples (nanoseconds) of one equal slice of
// a serving run. Samples from every connection land in the slice the
// reply arrived in.
type window []uint32

// windowStats is one window reduced to the per-slice figures the
// end-to-end metrics are taken over.
type windowStats struct {
	ops           int
	opsPerS       float64
	p50, p95, p99 float64 // microseconds
}

// reduceWindow sorts a window's samples and extracts its throughput and
// latency percentiles. length is the window length.
func reduceWindow(w window, length time.Duration) windowStats {
	s := make([]float64, len(w))
	for i, ns := range w {
		s[i] = float64(ns) / 1e3
	}
	sort.Float64s(s)
	return windowStats{
		ops:     len(s),
		opsPerS: float64(len(s)) / length.Seconds(),
		p50:     quantileSorted(s, 0.50),
		p95:     quantileSorted(s, 0.95),
		p99:     quantileSorted(s, 0.99),
	}
}

// windowIndex maps an instant to its window: -1 during warm-up, n (the
// window count) or more once the run is over.
func windowIndex(since, warmup, length time.Duration) int {
	if since < warmup {
		return -1
	}
	return int((since - warmup) / length)
}

// relativeGap is |a-b| as a share of their mean: the figure -repeat
// compares against a metric's bound.
func relativeGap(a, b float64) float64 {
	mean := (a + b) / 2
	if mean == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Abs(mean)
}

// cpuSeconds is the process's user+system CPU time so far. CPU time is
// what a datacenter pays for and moves far less than wall time when a
// neighbour takes the core.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// splitmix derives an independent seed for stream i of a run, so campaign
// seeds and client op streams all follow from the one -seed flag.
func splitmix(seed int64, i int) int64 {
	x := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// sampleSetUp appends set-up timings (seconds) to samples: at least one,
// then as many more as fit in the batch length, so a 7 ms set-up is not
// judged on a handful of samples. setUp times itself, which keeps
// teardown of the instance it built out of the sample.
func sampleSetUp(samples *[]float64, batch time.Duration, setUp func() (time.Duration, error)) error {
	for spent := time.Duration(0); ; {
		d, err := setUp()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		*samples = append(*samples, d.Seconds())
		if spent += d; spent >= batch {
			return nil
		}
	}
}
