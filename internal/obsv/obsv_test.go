package obsv

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("ops_total")
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops_total").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("level")
	if g.Value() != 0 {
		t.Errorf("zero value = %g", g.Value())
	}
	g.Set(3.25)
	if g.Value() != 3.25 {
		t.Errorf("value = %g", g.Value())
	}
	if r.Gauge("level") != g {
		t.Error("second lookup returned a different gauge")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	// A sample exactly on a bound belongs to that bound's bucket (le
	// semantics); above the last bound it overflows into +Inf.
	for _, x := range []float64{0.5, 1, 1.0000001, 10, 99.9, 100, 100.1, 1e9} {
		h.Observe(x)
	}
	snap := r.Snapshot().Histograms["lat"]
	want := []int64{2, 2, 2, 2} // (-inf,1] (1,10] (10,100] (100,+inf)
	for i, c := range snap.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, c, want[i], snap.Counts)
		}
	}
	if snap.Count != 8 {
		t.Errorf("count = %d", snap.Count)
	}
	wantSum := 0.5 + 1 + 1.0000001 + 10 + 99.9 + 100 + 100.1 + 1e9
	if math.Abs(snap.Sum-wantSum) > 1e-6 {
		t.Errorf("sum = %g, want %g", snap.Sum, wantSum)
	}
	if m := snap.Mean(); math.Abs(m-wantSum/8) > 1e-6 {
		t.Errorf("mean = %g", m)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", ExpBuckets(1, 2, 10))
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w%4) + 1)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*perWorker {
		t.Errorf("count = %d, want %d", h.Count(), workers*perWorker)
	}
	// Sum is an exact atomic accumulation of integer-valued samples.
	wantSum := float64(perWorker * 2 * (1 + 2 + 3 + 4))
	if h.Sum() != wantSum {
		t.Errorf("sum = %g, want %g", h.Sum(), wantSum)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 4, 3)
	if exp[0] != 1 || exp[1] != 4 || exp[2] != 16 {
		t.Errorf("exp = %v", exp)
	}
}

// fillRegistry populates a registry in the given insertion order, with
// values derived from the metric name only.
func fillRegistry(names []string) *Registry {
	r := NewRegistry()
	for _, n := range names {
		r.Counter("c_" + n).Add(int64(len(n)))
		r.Gauge("g_" + n).Set(float64(len(n)) / 2)
		h := r.Histogram("h_"+n, []float64{1, 2})
		h.Observe(float64(len(n)))
	}
	return r
}

func TestSnapshotDeterministicEncoding(t *testing.T) {
	a := fillRegistry([]string{"alpha", "beta", "gamma"})
	b := fillRegistry([]string{"gamma", "alpha", "beta"})
	var ta, tb bytes.Buffer
	if err := a.Snapshot().WriteText(&ta); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot().WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if ta.String() != tb.String() {
		t.Errorf("text encodings differ:\n%s\n--\n%s", ta.String(), tb.String())
	}
	ja, err := a.Snapshot().MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Snapshot().MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("JSON encodings differ:\n%s\n--\n%s", ja, jb)
	}
}

func TestTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total").Add(7)
	r.Gauge("temp").Set(1.5)
	h := r.Histogram("lat_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `reqs_total 7
temp 1.5
lat_ms_bucket{le="1"} 1
lat_ms_bucket{le="10"} 2
lat_ms_bucket{le="+Inf"} 3
lat_ms_sum 55.5
lat_ms_count 3
`
	if buf.String() != want {
		t.Errorf("text encoding:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Histogram("h", []float64{2}).Observe(1)
	b, err := r.Snapshot().MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Counters["a_total"] != 3 {
		t.Errorf("counter lost: %+v", got)
	}
	h := got.Histograms["h"]
	if len(h.Bounds) != 1 || len(h.Counts) != 2 || h.Counts[0] != 1 || h.Count != 1 {
		t.Errorf("histogram lost: %+v", h)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Inc()
	h := Handler(r)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Errorf("text body: %q", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("json body %q: %v", rec.Body.String(), err)
	}
	if snap.Counters["hits_total"] != 1 {
		t.Errorf("json snapshot: %+v", snap)
	}

	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/json")
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Accept negotiation content-type = %q", ct)
	}
}
