package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hrmsim/internal/kvnode"
	"hrmsim/internal/obsv"
)

// The protocol itself is tested in internal/kvnode; here we cover the
// pieces this command adds on top — the observability sidecar.

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
