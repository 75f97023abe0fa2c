package main

import (
	"context"
	"encoding/json"
	"net"
	"reflect"
	"strings"
	"testing"

	"hrmsim/internal/kvnode"
	"hrmsim/internal/obsv"
)

// chaosArgs is a short self-hosted run sized for CI: small working set,
// a few hundred operations per phase, read-only op stream.
func chaosArgs(extra ...string) []string {
	args := []string{"chaos",
		"-keys", "128", "-read-fraction", "1",
		"-steady", "300", "-chaos", "600", "-recovery", "300",
		"-injections", "8", "-seed", "42",
	}
	return append(args, extra...)
}

func TestChaosJSONEnvelope(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(chaosArgs("-ecc", "secded", "-json"))
	})
	res := decodeEnvelope(t, out, "chaos")

	if got := res["schema_version"]; got != float64(2) {
		t.Errorf("verdict schema_version = %v", got)
	}
	if got := res["experiment"]; got != "kvserve-secded" {
		t.Errorf("experiment = %v", got)
	}
	if got := res["seed"]; got != float64(42) {
		t.Errorf("seed = %v", got)
	}
	if got := res["pass"]; got != true {
		t.Errorf("SEC-DED verdict pass = %v; results: %v", got, res["results"])
	}
	if _, present := res["samples"]; present {
		t.Error("verdict still carries samples")
	}

	phases, ok := res["phases"].([]any)
	if !ok || len(phases) != 3 {
		t.Fatalf("phases = %v, want 3 reports", res["phases"])
	}
	wantPhases := []string{"steady", "chaos", "recovery"}
	for i, raw := range phases {
		p, ok := raw.(map[string]any)
		if !ok {
			t.Fatalf("phase %d not an object: %v", i, raw)
		}
		if p["phase"] != wantPhases[i] {
			t.Errorf("phase %d = %v, want %s", i, p["phase"], wantPhases[i])
		}
		for _, key := range []string{"duration_ms", "wall_p99_us", "ops", "gets", "errors",
			"wrong_values", "injections", "corrected", "recovered", "retired", "signals"} {
			if _, present := p[key]; !present {
				t.Errorf("phase %s missing %q", wantPhases[i], key)
			}
		}
		if _, present := p["timeouts"]; present {
			t.Errorf("phase %s still carries timeouts", wantPhases[i])
		}
		if ops, _ := p["ops"].(float64); ops <= 0 {
			t.Errorf("phase %s saw no traffic", wantPhases[i])
		}
	}
	chaosPhase := phases[1].(map[string]any)
	if inj, _ := chaosPhase["injections"].(float64); inj <= 0 {
		t.Errorf("chaos phase injections = %v", chaosPhase["injections"])
	}
	if corr, _ := chaosPhase["corrected"].(float64); corr <= 0 {
		t.Errorf("chaos phase corrected = %v, want > 0 under SEC-DED", chaosPhase["corrected"])
	}

	results, ok := res["results"].([]any)
	if !ok || len(results) == 0 {
		t.Fatalf("results = %v", res["results"])
	}
	names := map[string]bool{}
	for _, raw := range results {
		r := raw.(map[string]any)
		for _, key := range []string{"name", "signal", "phase", "comparison", "threshold", "pass"} {
			if _, present := r[key]; !present {
				t.Errorf("result %v missing %q", r["name"], key)
			}
		}
		if r["pass"] != true {
			t.Errorf("SEC-DED run failed objective %v in %v: %v", r["name"], r["phase"], r["reason"])
		}
		names[r["name"].(string)] = true
	}
	if len(results) != 6 || !names["error-rate"] || !names["no-wrong-values"] {
		t.Errorf("objectives %v over %d cells, want error-rate and no-wrong-values in each of 3 phases", names, len(results))
	}

	// The envelope's metrics snapshot must carry the chaos_* and kvload_*
	// instrumentation.
	for _, metric := range []string{"chaos_injections_total", "chaos_probe_reads_total",
		"kvload_ops_total", "kvload_op_latency_us"} {
		if !strings.Contains(out, metric) {
			t.Errorf("envelope metrics missing %s", metric)
		}
	}
}

// TestChaosUnprotectedFailsVerdict pins the CLI-level half of the
// discriminating experiment: same flags, ecc none, verdict FAIL.
func TestChaosUnprotectedFailsVerdict(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(chaosArgs("-ecc", "none", "-json"))
	})
	res := decodeEnvelope(t, out, "chaos")
	if got := res["pass"]; got != false {
		t.Errorf("unprotected verdict pass = %v, want false", got)
	}
	failedWrongValues := false
	for _, raw := range res["results"].([]any) {
		r := raw.(map[string]any)
		if r["name"] == "no-wrong-values" && r["phase"] == "chaos" && r["pass"] == false {
			failedWrongValues = true
		}
	}
	if !failedWrongValues {
		t.Error("no-wrong-values did not fail in the chaos phase")
	}
}

// TestChaosRenderedVerdict checks the human-readable table path.
func TestChaosRenderedVerdict(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(chaosArgs("-ecc", "parity", "-recover", "parr"))
	})
	for _, want := range []string{"chaos experiment", "PHASE", "SLO",
		"recovery-active", "verdict: PASS (7/7 objectives met)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered verdict missing %q:\n%s", want, out)
		}
	}
}

// chaosVerdict runs chaos -json and returns its verdict without the
// wall-clock fields, the only ones two runs of one seed may differ in.
func chaosVerdict(t *testing.T, args ...string) map[string]any {
	t.Helper()
	res := decodeEnvelope(t, captureStdout(t, func() error { return run(args) }), "chaos")
	for _, raw := range res["phases"].([]any) {
		p := raw.(map[string]any)
		delete(p, "duration_ms")
		delete(p, "wall_p50_us")
		delete(p, "wall_p99_us")
	}
	return res
}

// TestChaosSameSeedSameVerdict: the op stream, the fault slots and the
// oracle are all seeded, so a repeated run reproduces the verdict.
func TestChaosSameSeedSameVerdict(t *testing.T) {
	for _, node := range [][]string{
		{"-ecc", "none"},
		{"-ecc", "secded"},
		{"-ecc", "parity", "-recover", "parr", "-read-fraction", "1"},
	} {
		args := append([]string{"chaos", "-steady", "500", "-chaos", "1000", "-recovery", "500",
			"-seed", "42", "-json"}, node...)
		a, b := chaosVerdict(t, args...), chaosVerdict(t, args...)
		if !reflect.DeepEqual(a, b) {
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			t.Errorf("%v: two runs differ:\n%s\n%s", node, ja, jb)
		}
	}
}

// TestChaosReadFractionZeroIsWritesOnly: -read-fraction 0 sends no GET.
func TestChaosReadFractionZeroIsWritesOnly(t *testing.T) {
	res := decodeEnvelope(t, captureStdout(t, func() error {
		return run([]string{"chaos", "-read-fraction", "0", "-injections", "0", "-json"})
	}), "chaos")
	for _, raw := range res["phases"].([]any) {
		p := raw.(map[string]any)
		if p["gets"] != float64(0) || p["sets"] != p["ops"] {
			t.Errorf("%s phase: %v gets, %v sets of %v ops; want SETs only", p["phase"], p["gets"], p["sets"], p["ops"])
		}
	}
}

// TestChaosAttachSizesOracleFromNode attaches to a 64-key node without
// -keys: the oracle must take the key count and value size from the
// node's stats, so a read-only stream sees no wrong value.
func TestChaosAttachSizesOracleFromNode(t *testing.T) {
	srv, err := kvnode.New(kvnode.Config{Keys: 64, ECC: "secded", Seed: 5, Registry: obsv.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	defer func() {
		stop()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	out := captureStdout(t, func() error {
		return run([]string{"chaos", "-attach", ln.Addr().String(), "-injections", "0",
			"-read-fraction", "1", "-json"})
	})
	var env struct {
		Metrics obsv.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out), &env); err != nil {
		t.Fatal(err)
	}
	c := env.Metrics.Counters
	if c["kvload_gets_total"] == 0 || c["kvload_wrong_values_total"] != 0 || c["kvload_errors_total"] != 0 {
		t.Errorf("attached read-only run: %d gets, %d wrong values, %d errors; want gets and no wrong value or error",
			c["kvload_gets_total"], c["kvload_wrong_values_total"], c["kvload_errors_total"])
	}
}

// TestChaosFlagRefusals: node flags other than -seed and hot placement
// are refused with -attach (before any dial), and the flags of the
// goroutine load generator, the wall-clock sampler and its latency
// objectives are gone, as is -expect-recovery (the node's stats say
// whether it recovers).
func TestChaosFlagRefusals(t *testing.T) {
	for _, c := range []struct {
		want string
		args []string
	}{
		{"-keys", []string{"-attach", "127.0.0.1:1", "-keys", "64"}},
		{"-ecc, -recover", []string{"-attach", "127.0.0.1:1", "-recover", "parr", "-ecc", "parity"}},
		{"-checkpoint", []string{"-attach", "127.0.0.1:1", "-checkpoint", "1s"}},
		{"-inject-mode hot", []string{"-attach", "127.0.0.1:1", "-inject-mode", "hot"}},
		{"-inject-mode", []string{"-inject-mode", "scatter"}},
	} {
		if err := run(append([]string{"chaos"}, c.args...)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want one naming %s", c.args, err, c.want)
		}
	}
	for _, gone := range []string{"-conns", "-qps", "-zipf-s", "-value-size", "-op-timeout",
		"-sample-every", "-p50-slo-us", "-p99-slo-us", "-expect-recovery"} {
		if err := run([]string{"chaos", gone, "1"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("chaos %s: err = %v, want an undefined flag", gone, err)
		}
	}
}
