// Package obsv is the observability layer: lock-cheap counters, gauges,
// and fixed-bucket histograms that simulation hot paths can update from
// many goroutines, plus a deterministic snapshot API and text/JSON
// encoders (see OBSERVABILITY.md for the full metrics contract).
//
// The package exists so that campaigns (internal/core) and the live demo
// server (cmd/kvserve) expose *the same* metric kinds through *the same*
// encoders: a campaign dumps its instrumentation into the `hrmsim -json`
// result envelope, while kvserve serves the identical snapshot over HTTP
// at /metrics. All metric mutation is a single atomic operation — no
// locks are taken on the hot path — so instrumented campaigns remain
// bit-identical and effectively free.
//
// Naming convention: metric names are lowercase snake_case with a
// subsystem prefix (`campaign_`, `kvserve_`) and a unit suffix where the
// value has one (`_ms`, `_us`, `_minutes`, `_total` for monotonic
// counts). Every name exported by this module is tabulated in
// OBSERVABILITY.md; adding a metric means adding a row there.
package obsv

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// LabeledName renders a metric name with one label pair appended in the
// text-exposition form used throughout this module:
// name{key="value"}. Labeled metrics are ordinary registry entries whose
// name carries the label — lookup cost is the registry mutex, so they
// belong on cold paths (abort reasons, per-shard supervision events),
// not per-access hot loops. The label value is %q-quoted, so arbitrary
// strings are safe.
func LabeledName(name, key, value string) string {
	return fmt.Sprintf("%s{%s=%q}", name, key, value)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 value (a level, not a count).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores x.
func (g *Gauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// Value returns the last stored value (zero before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram safe for concurrent Observe.
// Bucket i counts samples x with x <= Bounds[i] (and greater than the
// previous bound); one extra implicit +Inf bucket catches the overflow.
// Sum and Count track the exact total, so the mean is always available
// even when samples overflow the last finite bound.
type Histogram struct {
	bounds  []float64 // sorted, finite upper bounds
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// newHistogram copies and sorts the bounds; an empty bound set yields a
// single +Inf bucket (count/sum only).
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	// First bound >= x identifies the "x <= bound" bucket; if no bound
	// qualifies the sample lands in the implicit +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.addSum(x)
}

// addSum atomically adds x to the running sample sum.
func (h *Histogram) addSum(x float64) {
	for {
		old := h.sumBits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + x)
		if h.sumBits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the exact sum of observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ExpBuckets returns n upper bounds start, start*factor, start*factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	x := start
	for i := range out {
		out[i] = x
		x *= factor
	}
	return out
}

// Registry is a named collection of metrics. Metric lookup/creation takes
// a mutex; the returned metric objects are updated lock-free, so hot
// loops should hold on to the pointer rather than re-looking it up.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// finite upper bounds on first use. The first registration fixes the
// bucket layout; later calls return the existing histogram unchanged.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the frozen state of one histogram. Counts has
// len(Bounds)+1 entries: one per finite bound plus the trailing +Inf
// bucket; entries are per-bucket (not cumulative).
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns Sum/Count, or 0 for an empty histogram.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry, with deterministic
// (sorted) encoding — two snapshots of identical metric states encode to
// identical bytes.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current state. Concurrent updates keep
// running; the snapshot is internally consistent per metric (each value
// is one atomic load) but not a global barrier across metrics.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counts) > 0 {
		s.Counters = make(map[string]int64, len(r.counts))
		for name, c := range r.counts {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{
				Bounds: append([]float64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
				Count:  h.Count(),
				Sum:    h.Sum(),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			s.Histograms[name] = hs
		}
	}
	return s
}
