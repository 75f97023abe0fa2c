package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hrmsim/internal/evtrace"
	"hrmsim/internal/faults"
	"hrmsim/internal/simmem"
)

// runTraced runs a small websearch campaign with a JSONL tracer and
// returns the results plus the raw stream.
func runTraced(t *testing.T, seed int64, parallelism int, sinks ...evtrace.Sink) *CampaignResult {
	t.Helper()
	tracer := evtrace.New(evtrace.Options{}, sinks...)
	res, err := Run(CampaignConfig{
		Builder:     wsBuilder(t, seed),
		Spec:        faults.SingleBitSoft,
		Trials:      30,
		Seed:        21,
		Parallelism: parallelism,
		RunOptions:  RunOptions{Tracer: tracer},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTracerDoesNotChangeResults(t *testing.T) {
	plain, err := Run(CampaignConfig{
		Builder:     wsBuilder(t, 14),
		Spec:        faults.SingleBitSoft,
		Trials:      30,
		Seed:        21,
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	traced := runTraced(t, 14, 4, evtrace.NewJSONLWriter(&bytes.Buffer{}))
	for i := range plain.Trials {
		a, b := plain.Trials[i], traced.Trials[i]
		if a.Outcome != b.Outcome || a.Region != b.Region ||
			a.Incorrect != b.Incorrect || a.EndedAt != b.EndedAt ||
			a.EffectAt != b.EffectAt || a.Requests != b.Requests {
			t.Fatalf("trial %d differs with tracing:\n%+v\n%+v", i, a, b)
		}
	}
}

// stripWallFields removes every "wall_"-prefixed field from a JSONL trace
// stream, the documented way to compare streams for determinism.
func stripWallFields(t *testing.T, stream []byte) string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimRight(string(stream), "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		for k := range m {
			if strings.HasPrefix(k, "wall_") {
				delete(m, k)
			}
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return strings.Join(out, "\n")
}

func TestTraceJSONLDeterministic(t *testing.T) {
	stream := func(parallelism int) []byte {
		var buf bytes.Buffer
		runTraced(t, 14, parallelism, evtrace.NewJSONLWriter(&buf))
		return buf.Bytes()
	}
	serial := stripWallFields(t, stream(1))
	again := stripWallFields(t, stream(1))
	parallel := stripWallFields(t, stream(4))
	if serial != again {
		t.Error("two serial runs differ after stripping wall_ fields")
	}
	if serial != parallel {
		t.Error("parallelism 1 vs 4 streams differ after stripping wall_ fields")
	}
	// And the wall-clock fields are confined to trial_start/trial_end.
	_, events, err := evtrace.ReadJSONL(bytes.NewReader(stream(2)))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		wallKind := ev.Kind == evtrace.KindTrialStart || ev.Kind == evtrace.KindTrialEnd
		if !wallKind && ev.WallUnixNanos != 0 {
			t.Fatalf("wall clock leaked into %s event: %+v", ev.Kind, ev)
		}
		if wallKind && ev.WallUnixNanos == 0 {
			t.Fatalf("%s event missing wall clock: %+v", ev.Kind, ev)
		}
	}
}

func TestTraceStreamMatchesResults(t *testing.T) {
	var buf bytes.Buffer
	res := runTraced(t, 14, 4, evtrace.NewJSONLWriter(&buf))
	_, events, err := evtrace.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	outcomes := map[int]string{}
	starts, injects := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case evtrace.KindTrialStart:
			starts++
		case evtrace.KindInject:
			injects++
			if ev.Error != faults.SingleBitSoft.String() || len(ev.Bits) == 0 {
				t.Fatalf("inject event incomplete: %+v", ev)
			}
		case evtrace.KindOutcome:
			outcomes[ev.Trial] = ev.Outcome
		}
	}
	if starts != len(res.Trials) || injects < len(res.Trials) {
		t.Fatalf("starts=%d injects=%d for %d trials", starts, injects, len(res.Trials))
	}
	for i, tr := range res.Trials {
		if outcomes[i] != tr.Outcome.String() {
			t.Errorf("trial %d traced outcome %q, result %q", i, outcomes[i], tr.Outcome)
		}
	}
}

func TestTraceFlightRecorderDumps(t *testing.T) {
	rec := evtrace.NewRecorder(0, 0)
	res := runTraced(t, 14, 4, rec)
	want := res.Count(OutcomeCrash) + res.Count(OutcomeIncorrect)
	if want == 0 {
		t.Skip("campaign produced no crash/incorrect trials; adjust seed")
	}
	dumps := rec.Dumps()
	if len(dumps)+rec.Skipped() != want {
		t.Fatalf("%d dumps + %d skipped for %d failing trials", len(dumps), rec.Skipped(), want)
	}
	for _, d := range dumps {
		tr := res.Trials[d.Trial]
		if d.Outcome != tr.Outcome.String() {
			t.Errorf("dump trial %d outcome %q, result %q", d.Trial, d.Outcome, tr.Outcome)
		}
		if len(d.Events) == 0 {
			t.Errorf("dump trial %d has no events", d.Trial)
		}
		if last := d.Events[len(d.Events)-1]; last.Kind != evtrace.KindTrialEnd {
			t.Errorf("dump trial %d does not end with trial_end: %+v", d.Trial, last)
		}
	}
}

func TestNilTracerNoAllocsOnAccess(t *testing.T) {
	// The campaign's untraced hot path: a Load through the observer fan-out
	// with the classification accessTracker registered and no tracer. It
	// must not allocate — tracing must cost nothing when off.
	as, err := simmem.New(simmem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := as.AddRegion(simmem.RegionSpec{Name: "heap", Kind: simmem.RegionHeap, Size: 4096})
	if err != nil {
		t.Fatal(err)
	}
	as.AddAccessObserver(newAccessTracker([]simmem.Addr{r.Base() + 128}))
	buf := make([]byte, 8)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := as.Load(r.Base()+64, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("untraced Load allocates %.1f times per op, want 0", allocs)
	}
}
