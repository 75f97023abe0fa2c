package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"hrmsim/internal/trace"
)

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its argument")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
	if quantile(nil, 0.5) != 0 || maxOf(nil) != 0 {
		t.Error("empty sample should reduce to 0")
	}
	// The quiet quartile sits on the good side: low for times, high for rates.
	if lo, hi := quietLow(xs), quietHigh(xs); lo != 2 || hi != 4 {
		t.Errorf("quietLow, quietHigh = %v, %v, want 2, 4", lo, hi)
	}
	for _, tc := range []struct {
		xs   []float64
		n    int
		want string
	}{
		{[]float64{1, 9, 2, 3, 4, 8, 7}, 3, "[9 8]"}, // the short last block is dropped
		{[]float64{3, 5}, 4, "[5]"},                  // fewer than a block make one
		{nil, 4, "[]"},
	} {
		if got := fmt.Sprint(blockMax(tc.xs, tc.n)); got != tc.want {
			t.Errorf("blockMax(%v, %d) = %s, want %s", tc.xs, tc.n, got, tc.want)
		}
	}
	if got := relativeGap(90, 110); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relativeGap(90,110) = %v, want 0.2", got)
	}
}

func TestWindows(t *testing.T) {
	warm, length := 2*time.Second, time.Second
	for _, tc := range []struct {
		since time.Duration
		want  int
	}{{0, -1}, {1999 * time.Millisecond, -1}, {2 * time.Second, 0}, {2999 * time.Millisecond, 0}, {3 * time.Second, 1}, {20 * time.Second, 18}} {
		if got := windowIndex(tc.since, warm, length); got != tc.want {
			t.Errorf("windowIndex(%v) = %d, want %d", tc.since, got, tc.want)
		}
	}
	// 1..100 us in a 2 s window: 50 ops/s, p50 50.5 us, p95 95.05 us, p99 99.01 us.
	var w window
	for i := 100; i >= 1; i-- {
		w = append(w, uint32(i*1000))
	}
	ws := reduceWindow(w, 2*time.Second)
	if ws.ops != 100 || ws.opsPerS != 50 || math.Abs(ws.p50-50.5) > 1e-9 || math.Abs(ws.p95-95.05) > 1e-9 || math.Abs(ws.p99-99.01) > 1e-9 {
		t.Errorf("reduceWindow = %+v", ws)
	}
}

func TestSplitmixStreamsDiffer(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		for i := 0; i < 50; i++ {
			s := splitmix(seed, i)
			if s < 0 || seen[s] {
				t.Fatalf("splitmix(%d,%d) = %d repeats or is negative", seed, i, s)
			}
			seen[s] = true
		}
	}
}

func TestSampleSetUpFillsItsBatch(t *testing.T) {
	var samples []float64
	cheap := func() (time.Duration, error) { return 10 * time.Millisecond, nil }
	if err := sampleSetUp(&samples, 100*time.Millisecond, cheap); err != nil || len(samples) != 10 {
		t.Errorf("cheap set-up: %d samples, err %v; want 10 in a 100 ms batch", len(samples), err)
	}
	dear := func() (time.Duration, error) { return time.Second, nil }
	if err := sampleSetUp(&samples, 100*time.Millisecond, dear); err != nil || len(samples) != 11 {
		t.Errorf("a set-up longer than the batch is still sampled once; have %d samples", len(samples))
	}
	if err := sampleSetUp(&samples, time.Second, func() (time.Duration, error) { return 0, io.EOF }); err == nil {
		t.Error("a failing set-up was not reported")
	}
}

func TestSpanSelfTime(t *testing.T) {
	// trial [0,100] › restore [10,20], serve [30,90] › request [40,60], request [60,85]
	rec := &recorder{unitKey: "trial"}
	rec.spans = []span{
		{ID: 1, Parent: 0, Name: "core.trial", Start: 0, End: 100, Unit: 7},
		{ID: 2, Parent: 1, Name: "simmem.restore", Start: 10, End: 20, Unit: 7},
		{ID: 3, Parent: 1, Name: "apps.serve", Start: 30, End: 90, Unit: 7},
		{ID: 4, Parent: 3, Name: "apps.request", Start: 40, End: 60, Unit: 7},
		{ID: 5, Parent: 3, Name: "apps.request", Start: 60, End: 85, Unit: 7},
	}
	got := map[string]selfTime{}
	var selfSum int64
	for _, row := range selfTimes(rec.spans) {
		got[row.Name] = row
		selfSum += row.SelfNs
	}
	want := map[string]selfTime{
		"core.trial":     {Name: "core.trial", Count: 1, TotalNs: 100, SelfNs: 30},
		"simmem.restore": {Name: "simmem.restore", Count: 1, TotalNs: 10, SelfNs: 10},
		"apps.serve":     {Name: "apps.serve", Count: 1, TotalNs: 60, SelfNs: 15},
		"apps.request":   {Name: "apps.request", Count: 2, TotalNs: 45, SelfNs: 45},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if selfSum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", selfSum)
	}
	if l := got["apps.request"].layer(); l != "apps" {
		t.Errorf("layer = %q, want apps", l)
	}

	var buf bytes.Buffer
	if err := rec.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d span lines, want 5", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[3]), &first); err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]any{"id": 4.0, "parent": 3.0, "name": "apps.request", "start_ns": 40.0, "end_ns": 60.0, "trial": 7.0} {
		if first[k] != v {
			t.Errorf("span line field %s = %v, want %v", k, first[k], v)
		}
	}

	// A nil recorder is the untraced twin: same calls, nothing kept.
	var off *recorder
	off.end(off.begin("x", 0, 0))
}

func TestCheckGet(t *testing.T) {
	reply := func(ver uint32, val []byte) []byte {
		return []byte(fmt.Sprintf("VALUE %d %s\n", ver, hex.EncodeToString(val)))
	}
	good := trace.ValueFor(42, 3, 64)
	if err := checkGet(42, 3, 64, reply(3, good)); err != nil {
		t.Errorf("correct reply rejected: %v", err)
	}
	if err := checkGet(42, 5, 64, reply(3, good)); err != nil {
		t.Errorf("an older version under the ceiling is stale, not wrong: %v", err)
	}
	flipped := append([]byte(nil), good...)
	flipped[17] ^= 0x08
	for name, r := range map[string][]byte{
		"one flipped bit":       reply(3, flipped),
		"another key's value":   reply(3, trace.ValueFor(43, 3, 64)),
		"version never written": reply(4, trace.ValueFor(42, 4, 64)),
		"miss":                  []byte("MISS\n"),
		"server error":          []byte("SERVER_ERROR memory fault: x\n"),
		"bad hex":               []byte("VALUE 3 zz\n"),
		"short value":           reply(3, good[:32]),
	} {
		if err := checkGet(42, 3, 64, r); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestExpectedStatisticsGate(t *testing.T) {
	for _, w := range workloads {
		doc, err := loadExpected(w.name)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if doc.Workload != w.name || doc.Seed != expectedSeed || len(doc.Traced) == 0 {
			t.Errorf("%s: committed statistics are for %q seed %d with %d traced counts", w.name, doc.Workload, doc.Seed, len(doc.Traced))
		}
		for i, c := range doc.Campaigns {
			if err := c.invariants(); err != nil {
				t.Errorf("%s campaign %d: %v", w.name, i, err)
			}
		}
	}

	doc, err := loadExpected("camp-graphmine-none-soft")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Campaigns) < 4 {
		t.Fatalf("only %d campaigns committed", len(doc.Campaigns))
	}
	got := exactStats{Campaigns: doc.Campaigns, Traced: doc.Traced}
	if d := compareExact(doc.exactStats, got); len(d) != 0 {
		t.Errorf("identical statistics differ: %v", d)
	}
	// A slower host measures fewer campaigns: its prefix must pass.
	if d := compareExact(doc.exactStats, exactStats{Campaigns: doc.Campaigns[:3]}); len(d) != 0 {
		t.Errorf("a prefix of the committed campaigns differs: %v", d)
	}

	// Tamper with the committed file: every edit must fail the gate.
	raw, err := expectedFS.ReadFile("expected/camp-graphmine-none-soft.json")
	if err != nil {
		t.Fatal(err)
	}
	crash := fmt.Sprintf(`"crash": %d`, doc.Campaigns[1].Outcomes["crash"])
	loads := fmt.Sprintf(`"reenact.loads": %d`, doc.Traced["reenact.loads"])
	for name, edit := range map[string][2]string{
		"outcome histogram": {crash, fmt.Sprintf(`"crash": %d`, doc.Campaigns[1].Outcomes["crash"]+1)},
		"traced load count": {loads, fmt.Sprintf(`"reenact.loads": %d`, doc.Traced["reenact.loads"]-1)},
		"dropped counter":   {loads + ",", ""},
	} {
		if !bytes.Contains(raw, []byte(edit[0])) {
			t.Fatalf("%s: committed file has no %q", name, edit[0])
		}
		tampered, err := parseExpected(bytes.Replace(raw, []byte(edit[0]), []byte(edit[1]), 1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := compareExact(tampered.exactStats, got); len(d) == 0 {
			t.Errorf("%s: tampered file passed the gate", name)
		}
	}
	if _, err := parseExpected(bytes.Replace(raw, []byte(`"seed"`), []byte(`"sede"`), 1)); err == nil {
		t.Error("a misspelt field parsed")
	}

	// The invariants catch what any seed must satisfy.
	bad := doc.Campaigns[0]
	bad.Completed--
	if bad.invariants() == nil {
		t.Error("outcomes exceeding completed trials passed")
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	// BENCHMARK.json declares the workloads the driver's time limit has
	// room for at run_seconds; the binary may implement more (README,
	// Workloads), in the same order.
	if len(doc.Workloads) < 2 || len(doc.Workloads) > 8 {
		t.Fatalf("%d workloads declared, the contract wants 2 to 8", len(doc.Workloads))
	}
	next := 0
	for _, d := range doc.Workloads {
		name(d.Name)
		for next < len(workloads) && workloads[next].name != d.Name {
			next++
		}
		if next == len(workloads) {
			t.Fatalf("BENCHMARK.json declares %q, which the binary does not implement (or not in this order)", d.Name)
		}
		if d.Why != workloads[next].why {
			t.Errorf("%s: BENCHMARK.json says %q, the binary %q", d.Name, d.Why, workloads[next].why)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	// 4 + 22 runs per workload, each run_seconds plus about 5 s of set-up
	// samples and start-up, inside the driver's 3420 s with room for two
	// builds.
	if total := (4 + 22*len(doc.Workloads)) * (doc.RunSeconds + 5); total > 3300 {
		t.Errorf("%d workloads at %d s need about %d s of the driver's 3420", len(doc.Workloads), doc.RunSeconds, total)
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the binary %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range endToEnd {
		name(m.Name)
		d := doc.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the binary %+v", i, d, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, unit %q or direction %q is outside the contract", m.Name, m.Bound, m.Unit, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range perLayer {
		name(m.Name)
		d := doc.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the binary %+v", i, d, m)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q is outside the contract", m.Name, m.Unit, m.Better)
		}
	}
	if strings.Join(doc.Command, " ") != "go run ./bench" || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("command %q paths %q, want go run ./bench over bench", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
}

// TestSmokeEveryWorkload drives the real command line at toy sizes: all
// five workloads, both passes, and the machine-readable line of each must
// carry exactly the declared metric names.
func TestSmokeEveryWorkload(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for trace, declared := range [][]string{namesOf(endToEnd), namesOf(perLayer)} {
			var buf bytes.Buffer
			args := []string{"-smoke", "-seconds", "0.2", "-seed", "5", "-out", out, "-workload", w.name, "-trace", fmt.Sprint(trace)}
			if err := run(args, &buf); err != nil {
				t.Fatalf("%v: %v\n%s", args, err, buf.String())
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%v: last line %q: %v", args, lines[len(lines)-1], err)
			}
			if line.Correct == nil || !*line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%v: correct %v attempted %d failed %d", args, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(declared) {
				t.Errorf("%v: %d metrics emitted, %d declared", args, len(line.Metrics), len(declared))
			}
			for _, n := range declared {
				m, ok := line.Metrics[n]
				if !ok || m.Value == nil || m.Unit == "" {
					t.Errorf("%v: metric %s missing or incomplete", args, n)
				} else if trace == 0 && *m.Value <= 0 {
					t.Errorf("%v: end-to-end metric %s = %v, must be positive", args, n, *m.Value)
				}
			}
		}
		if _, err := os.Stat(out + "/" + w.name + ".spans.jsonl"); err != nil {
			t.Errorf("%s: traced pass left no spans file: %v", w.name, err)
		}
	}
}

func namesOf(ms []metric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	return names
}

func TestCommandLineRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload", "-smoke"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"stray"},
		{"-update-expected", t.TempDir(), "-seed", "2"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}
