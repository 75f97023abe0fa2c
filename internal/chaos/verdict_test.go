package chaos

import (
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"hrmsim/internal/obsv"
	"hrmsim/internal/trace"
)

// hexValue encodes the oracle value for (key, version) the way the
// protocol carries it.
func hexValue(key uint64, ver uint32, size int) string {
	return hex.EncodeToString(trace.ValueFor(key, ver, size))
}

// phaseWith builds a minimal report with the given signals present.
func phaseWith(name string, ops, gets int64, signals map[string]float64) PhaseReport {
	return PhaseReport{Phase: name, Ops: ops, Gets: gets, Signals: signals}
}

func TestEvaluateBoundaries(t *testing.T) {
	cases := []struct {
		name     string
		slo      SLO
		observed float64
		want     bool
	}{
		{"max-at-threshold", SLO{Name: "s", Signal: SignalErrorRate, Comparison: Max, Threshold: 0.1}, 0.1, true},
		{"max-below", SLO{Name: "s", Signal: SignalErrorRate, Comparison: Max, Threshold: 0.1}, 0.0999, true},
		{"max-above", SLO{Name: "s", Signal: SignalErrorRate, Comparison: Max, Threshold: 0.1}, 0.1001, false},
		{"max-zero-at-zero", SLO{Name: "s", Signal: SignalWrongValueRate, Comparison: Max, Threshold: 0}, 0, true},
		{"max-zero-above", SLO{Name: "s", Signal: SignalWrongValueRate, Comparison: Max, Threshold: 0}, 1e-9, false},
		{"min-at-threshold", SLO{Name: "s", Signal: SignalRecoveries, Comparison: Min, Threshold: 3}, 3, true},
		{"min-above", SLO{Name: "s", Signal: SignalRecoveries, Comparison: Min, Threshold: 3}, 4, true},
		{"min-below", SLO{Name: "s", Signal: SignalRecoveries, Comparison: Min, Threshold: 3}, 2, false},
	}
	for _, tc := range cases {
		p := phaseWith(PhaseSteady, 100, 90, map[string]float64{tc.slo.Signal: tc.observed})
		results, pass := evaluate([]SLO{tc.slo}, []PhaseReport{p})
		if len(results) != 1 {
			t.Fatalf("%s: %d results", tc.name, len(results))
		}
		r := results[0]
		if r.Pass != tc.want || pass != tc.want {
			t.Errorf("%s: pass = %v, want %v", tc.name, r.Pass, tc.want)
		}
		if r.Observed == nil || *r.Observed != tc.observed {
			t.Errorf("%s: observed = %v", tc.name, r.Observed)
		}
		if !r.Pass && r.Reason == "" {
			t.Errorf("%s: failing result has no reason", tc.name)
		}
	}
}

func TestEvaluateMissingData(t *testing.T) {
	cases := []struct {
		name       string
		slo        SLO
		phase      PhaseReport
		wantReason string
	}{
		{
			"zero-traffic-error-rate",
			SLO{Name: "s", Signal: SignalErrorRate, Comparison: Max, Threshold: 0},
			phaseWith(PhaseSteady, 0, 0, map[string]float64{}),
			"no traffic in window",
		},
		{
			"zero-reads-wrong-value",
			SLO{Name: "s", Signal: SignalWrongValueRate, Comparison: Max, Threshold: 0},
			phaseWith(PhaseSteady, 10, 0, map[string]float64{}),
			"no reads in window",
		},
	}
	for _, tc := range cases {
		results, pass := evaluate([]SLO{tc.slo}, []PhaseReport{tc.phase})
		if pass {
			t.Errorf("%s: unmeasurable window passed", tc.name)
		}
		r := results[0]
		if r.Pass || r.Observed != nil {
			t.Errorf("%s: result = %+v, want fail with nil observed", tc.name, r)
		}
		if r.Reason != tc.wantReason {
			t.Errorf("%s: reason = %q, want %q", tc.name, r.Reason, tc.wantReason)
		}
	}
}

func TestEvaluatePhaseScoping(t *testing.T) {
	slo := SLO{Name: "r", Signal: SignalRecoveries, Comparison: Min, Threshold: 1,
		Phases: []string{PhaseChaos}}
	phases := []PhaseReport{
		phaseWith(PhaseSteady, 10, 10, map[string]float64{SignalRecoveries: 0}),
		phaseWith(PhaseChaos, 10, 10, map[string]float64{SignalRecoveries: 2}),
		phaseWith(PhaseRecovery, 10, 10, map[string]float64{SignalRecoveries: 0}),
	}
	results, pass := evaluate([]SLO{slo}, phases)
	if len(results) != 1 || results[0].Phase != PhaseChaos {
		t.Fatalf("scoped SLO evaluated in %d phases: %+v", len(results), results)
	}
	if !pass {
		t.Error("scoped SLO should pass on the chaos window alone")
	}
}

func TestPercentile(t *testing.T) {
	reg := obsv.NewRegistry()
	h := reg.Histogram("t", []float64{10, 100, 1000})
	start := reg.Snapshot().Histograms["t"]
	for i := 0; i < 90; i++ {
		h.Observe(5) // bucket (0,10]
	}
	for i := 0; i < 10; i++ {
		h.Observe(50) // bucket (10,100]
	}
	end := reg.Snapshot().Histograms["t"]

	if p, ok := Percentile(start, end, 0.50); !ok || p <= 0 || p > 10 {
		t.Errorf("p50 = %v,%v; want within (0,10]", p, ok)
	}
	if p, ok := Percentile(start, end, 0.99); !ok || p <= 10 || p > 100 {
		t.Errorf("p99 = %v,%v; want within (10,100]", p, ok)
	}
	// From-zero start snapshot.
	if p, ok := Percentile(obsv.HistogramSnapshot{}, end, 0.50); !ok || p > 10 {
		t.Errorf("from-zero p50 = %v,%v", p, ok)
	}
	// Empty window.
	if _, ok := Percentile(end, end, 0.99); ok {
		t.Error("empty window produced a percentile")
	}
	// Overflow bucket: all new samples beyond the last bound.
	h.Observe(5000)
	end2 := reg.Snapshot().Histograms["t"]
	if _, ok := Percentile(end, end2, 0.99); ok {
		t.Error("overflow-bucket quantile reported as measurable")
	}
}

func TestParseStats(t *testing.T) {
	st, err := parseStats("STATS ops=12 injected=3 faults=4 corrected=5 uncorrectable=6 recovered=7 retired=8 vnow_ms=90 conns=2 keys=64 value_size=32 ecc=secded recover=none future=x")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 12 || st.Injected != 3 || st.Corrected != 5 || st.Recovered != 7 ||
		st.Retired != 8 || st.VNowMs != 90 || st.Conns != 2 ||
		st.Keys != 64 || st.ValueSize != 32 || st.ECC != "secded" || st.Recover != "none" {
		t.Errorf("parsed: %+v", st)
	}
	for _, bad := range []string{"", "ERROR", "STATS ops", "STATS ops=x", "STATS keys=64k"} {
		if _, err := parseStats(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestClassifyGet(t *testing.T) {
	reg := obsv.NewRegistry()
	ct := newCounters(reg)
	const key, size = 5, 64
	okResp := "VALUE 0 " + hexValue(key, 0, size)

	ct.classifyGet(key, 0, size, okResp)
	ct.classifyGet(key, 0, size, "MISS")                              // lost entry
	ct.classifyGet(key, 0, size, "VALUE 9 "+hexValue(key, 9, size))   // version never written
	ct.classifyGet(key, 0, size, "VALUE 0 "+hexValue(key+1, 0, size)) // wrong bytes
	ct.classifyGet(key, 3, size, okResp)                              // valid but stale
	ct.classifyGet(key, 0, size, "SERVER_ERROR uncorrectable")

	snap := reg.Snapshot()
	if got := snap.Counters["kvload_wrong_values_total"]; got != 3 {
		t.Errorf("wrong = %d, want 3", got)
	}
	if got := snap.Counters["kvload_stale_values_total"]; got != 1 {
		t.Errorf("stale = %d, want 1", got)
	}
	if got := snap.Counters["kvload_errors_total"]; got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
}

func TestVerdictRenderAndJSON(t *testing.T) {
	obs := 0.5
	v := &Verdict{
		SchemaVersion: VerdictSchemaVersion,
		Experiment:    "unit",
		Seed:          7,
		Phases: []PhaseReport{
			phaseWith(PhaseSteady, 10, 9, map[string]float64{SignalErrorRate: 0}),
			phaseWith(PhaseChaos, 10, 9, map[string]float64{SignalErrorRate: 0.5}),
			phaseWith(PhaseRecovery, 0, 0, map[string]float64{}),
		},
		Results: []SLOResult{
			{Name: "er", Signal: SignalErrorRate, Phase: PhaseSteady, Comparison: Max, Observed: new(float64), Pass: true},
			{Name: "er", Signal: SignalErrorRate, Phase: PhaseChaos, Comparison: Max, Observed: &obs, Pass: false,
				Reason: "observed 0.5000 violates max 0.0000"},
			{Name: "er", Signal: SignalErrorRate, Phase: PhaseRecovery, Comparison: Max, Pass: false,
				Reason: "no traffic in window"},
		},
		Pass: false,
	}
	out := v.Render()
	for _, want := range []string{"steady", "chaos", "recovery", "PASS", "FAIL",
		"no traffic in window", "verdict: FAIL (2/3 objectives violated)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema_version", "experiment", "seed", "phases", "results", "pass"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("verdict JSON missing %q", key)
		}
	}
	if decoded["schema_version"] != float64(2) {
		t.Errorf("schema_version = %v", decoded["schema_version"])
	}
	// A result with no observation must omit the field rather than
	// encode a meaningless zero.
	results := decoded["results"].([]any)
	last := results[2].(map[string]any)
	if _, present := last["observed"]; present {
		t.Error("unmeasured result encoded an observed value")
	}
}
