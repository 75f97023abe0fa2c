package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"hrmsim/internal/kvnode"
	"hrmsim/internal/obsv"
)

// The protocol itself is tested in internal/kvnode; here we cover the
// pieces this command adds on top — the observability sidecar and the
// command line.

// TestMain lets the test binary stand in for kvserve: with
// KVSERVE_TEST_MAIN set it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("KVSERVE_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStrayArgumentRefused: an argument the flags leave over stops
// kvserve before it listens, naming the argument. Flag parsing stops at
// the first non-flag, so `kvserve secded -ecc none` would otherwise
// serve with every flag after the stray word dropped.
func TestStrayArgumentRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-addr", "127.0.0.1:0", "stray", "-ecc", "none")
	cmd.Env = append(os.Environ(), "KVSERVE_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 || ctx.Err() != nil {
		t.Fatalf("kvserve with a stray argument: %v, want exit status 1\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `unexpected argument(s) ["stray" "-ecc" "none"]`) {
		t.Errorf("stderr = %q, want the stray arguments named", stderr.String())
	}
	if strings.Contains(stderr.String(), "listening") {
		t.Errorf("kvserve listened before refusing:\n%s", stderr.String())
	}
}

// TestMetricsSidecarEndpoints starts the observability mux on a real
// loopback listener — exactly what `-metrics-addr 127.0.0.1:0` does — and
// exercises /healthz and /metrics in both exposition formats.
func TestMetricsSidecarEndpoints(t *testing.T) {
	srv, err := kvnode.New(kvnode.Config{Keys: 64, ECC: "none", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Generate some traffic so the metrics are non-trivial.
	srv.Dispatch("get 1")
	srv.Dispatch("set 1 2")
	srv.Dispatch("get 9999")
	srv.Dispatch("inject soft")
	srv.Dispatch("bogus")

	ts := httptest.NewServer(obsv.SidecarMux(obsv.Handler(srv.Registry())))
	defer ts.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	if body, _ := get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %q", body)
	}

	text, ctype := get("/metrics")
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	for _, want := range []string{
		"kvserve_ops_total 3",
		"kvserve_gets_total 2",
		"kvserve_sets_total 1",
		"kvserve_hits_total 1",
		"kvserve_misses_total 1",
		"kvserve_injections_total 1",
		"kvserve_client_errors_total 1",
		`kvserve_op_wall_us_bucket{le="+Inf"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	jsonBody, ctype := get("/metrics?format=json")
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("/metrics?format=json content type = %q", ctype)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(jsonBody), &snap); err != nil {
		t.Fatalf("/metrics?format=json: %v\n%s", err, jsonBody)
	}
	if snap.Counters["kvserve_ops_total"] != 3 {
		t.Errorf("kvserve_ops_total = %d, want 3", snap.Counters["kvserve_ops_total"])
	}
}
