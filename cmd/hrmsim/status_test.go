// Control-plane tests: the coordinator's heartbeat-tailed fleet view,
// the status HTTP server, the `hrmsim status` rendering, and the
// straggler liveness classification.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hrmsim"
)

// TestCoordinatorControlPlaneEndToEnd pins the PR's acceptance
// criterion: a sharded campaign's live fleet view — delivered through
// the FleetSink, served at /statusz, and re-read from the shard
// directory by `hrmsim status` after the run — reports exactly the
// trial counts of the final merged Characterization.
func TestCoordinatorControlPlaneEndToEnd(t *testing.T) {
	cfg := testCoordinatorConfig(t)
	cfg.Shards = 4
	var fleetPtr atomic.Pointer[hrmsim.FleetStatus]
	cfg.FleetSink = func(fs *hrmsim.FleetStatus) { fleetPtr.Store(fs) }
	cfg.Launch = inProcessLauncher(t, cfg, nil)
	out, err := runCoordinator(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failed) != 0 || out.Info.Missing != 0 {
		t.Fatalf("unhealthy run: failed=%v info=%+v", out.Failed, out.Info)
	}
	merged := out.Result

	// The final sink delivery reflects the settled campaign.
	fleet := fleetPtr.Load()
	if fleet == nil {
		t.Fatal("coordinator never delivered a fleet status")
	}
	if fleet.Running != 0 || fleet.Done != cfg.Campaign.Trials || fleet.Total != cfg.Campaign.Trials {
		t.Errorf("final fleet = running %d, %d/%d done", fleet.Running, fleet.Done, fleet.Total)
	}
	if fleet.Completed != merged.Completed || fleet.Aborted != merged.Aborted {
		t.Errorf("fleet completed/aborted = %d/%d, merged %d/%d",
			fleet.Completed, fleet.Aborted, merged.Completed, merged.Aborted)
	}
	// Outcome taxonomy equality in both directions (the merged map also
	// carries explicit zeros; the heartbeat counts only observed labels).
	for o, n := range fleet.Outcomes {
		if merged.Outcomes[o] != n {
			t.Errorf("fleet outcome %s = %d, merged %d", o, n, merged.Outcomes[o])
		}
	}
	for o, n := range merged.Outcomes {
		if n != 0 && fleet.Outcomes[o] != n {
			t.Errorf("merged outcome %s = %d missing from fleet view", o, n)
		}
	}

	// The status server serves the same aggregate at /statusz.
	shutdown, addr, err := startStatusServer("127.0.0.1:0", fleetPtr.Load, cfg.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, body
	}
	code, body := get("/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz = %d: %s", code, body)
	}
	var env struct {
		SchemaVersion int                `json:"schema_version"`
		Command       string             `json:"command"`
		Result        hrmsim.FleetStatus `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decoding /statusz: %v", err)
	}
	if env.SchemaVersion != schemaVersion || env.Command != "status" {
		t.Errorf("/statusz envelope = %+v", env)
	}
	if env.Result.Done != cfg.Campaign.Trials || env.Result.Completed != merged.Completed ||
		env.Result.Aborted != merged.Aborted || env.Result.Running != 0 {
		t.Errorf("/statusz result = %+v, want the merged counts", env.Result)
	}
	if len(env.Result.Shards) != cfg.Shards {
		t.Errorf("/statusz has %d shards, want %d", len(env.Result.Shards), cfg.Shards)
	}
	for o, n := range env.Result.Outcomes {
		if merged.Outcomes[o] != n {
			t.Errorf("/statusz outcome %s = %d, merged %d", o, n, merged.Outcomes[o])
		}
	}

	// /metrics merges the fleet heartbeat snapshots with the
	// coordinator's own registry into one exposition.
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		fmt.Sprintf("campaign_trials_total %d", merged.Completed),
		fmt.Sprintf("campaign_shards_total %d", cfg.Shards),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	code, body = get("/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	// `hrmsim status` re-reads the same numbers from the shard
	// directory after the run (the records are the final heartbeats).
	after, err := hrmsim.LoadFleetStatus(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	view := renderFleetStatus(after, time.Now())
	for _, want := range []string{
		fmt.Sprintf("%d/%d trials (100%%)", cfg.Campaign.Trials, cfg.Campaign.Trials),
		fmt.Sprintf("%d completed, %d aborted", merged.Completed, merged.Aborted),
		fmt.Sprintf("%d/%d shard(s) reporting, 0 running", cfg.Shards, cfg.Shards),
	} {
		if !strings.Contains(view, want) {
			t.Errorf("status view missing %q:\n%s", want, view)
		}
	}
	for o, n := range after.Outcomes {
		if !strings.Contains(view, fmt.Sprintf("%s=%d", o, n)) {
			t.Errorf("status view missing outcome %s=%d:\n%s", o, n, view)
		}
	}
}

// TestStatuszBeforeFirstHeartbeat: the server answers 503, not a
// panic or an empty 200, while no shard has reported.
func TestStatuszBeforeFirstHeartbeat(t *testing.T) {
	cfg := testCoordinatorConfig(t)
	shutdown, addr, err := startStatusServer("127.0.0.1:0",
		func() *hrmsim.FleetStatus { return nil }, cfg.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/statusz before heartbeat = %d, want 503", resp.StatusCode)
	}
	// /metrics still serves the coordinator's own registry.
	mresp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mresp.Body.Close() }()
	if mresp.StatusCode != http.StatusOK {
		t.Errorf("/metrics before heartbeat = %d, want 200", mresp.StatusCode)
	}
}

// TestShardLiveness covers the straggler classification: heartbeat age
// is primary, journal mtime the fallback, and a worker with neither
// artifact is diagnosed explicitly instead of warned on a stale floor.
func TestShardLiveness(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	floor := now.Add(-time.Minute)
	journal := filepath.Join(dir, "shard.jsonl")

	// Heartbeat present: it sets last and the detail names its age.
	hb := now.Add(-10 * time.Second)
	last, detail := shardLiveness(now, floor, hb, true, journal)
	if !last.Equal(hb) {
		t.Errorf("heartbeat case last = %v, want %v", last, hb)
	}
	if !strings.Contains(detail, "last heartbeat 10s ago") {
		t.Errorf("heartbeat detail = %q", detail)
	}
	// A heartbeat older than the floor must not move last backwards.
	last, _ = shardLiveness(now, floor, now.Add(-2*time.Minute), true, journal)
	if !last.Equal(floor) {
		t.Errorf("stale heartbeat moved last to %v, want floor %v", last, floor)
	}

	// No heartbeat, no journal: the explicit not-started diagnosis.
	last, detail = shardLiveness(now, floor, time.Time{}, false, journal)
	if !last.Equal(floor) {
		t.Errorf("missing-journal last = %v, want floor", last)
	}
	if !strings.Contains(detail, "has not finished a single trial") {
		t.Errorf("missing-journal detail = %q", detail)
	}

	// No heartbeat, journal present: mtime is the fallback signal.
	if err := os.WriteFile(journal, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	last, detail = shardLiveness(now, floor, time.Time{}, false, journal)
	if !last.After(floor) {
		t.Errorf("journal fallback did not advance last: %v", last)
	}
	if !strings.Contains(detail, "no heartbeat; journal") || !strings.Contains(detail, "unchanged for") {
		t.Errorf("journal detail = %q", detail)
	}
}

// TestFleetProgressLine: the aggregate progress line carries the fleet
// counts, rate, and ETA while running, and plain counts once settled.
func TestFleetProgressLine(t *testing.T) {
	fs := &hrmsim.FleetStatus{
		Trials:       400,
		Done:         100,
		Running:      3,
		TrialsPerSec: 50,
		EtaSeconds:   6,
	}
	line := fleetProgressLine(fs)
	for _, want := range []string{"100/400 trials (25%)", "3 shard(s) running", "50.0 trials/s", "ETA 6s"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line missing %q: %q", want, line)
		}
	}
	fs.Done, fs.Running, fs.TrialsPerSec, fs.EtaSeconds = 400, 0, 0, 0
	line = fleetProgressLine(fs)
	if !strings.Contains(line, "400/400 trials (100%)") || strings.Contains(line, "ETA") {
		t.Errorf("settled progress line = %q", line)
	}
}

// TestCmdStatusValidation covers the subcommand's flag contract.
func TestCmdStatusValidation(t *testing.T) {
	if err := cmdStatus(nil); err == nil || !strings.Contains(err.Error(), "directory is required") {
		t.Errorf("no-dir err = %v", err)
	}
	if err := cmdStatus([]string{"-watch", "-json", t.TempDir()}); err == nil ||
		!strings.Contains(err.Error(), "-watch renders text") {
		t.Errorf("watch+json err = %v", err)
	}
	// A non-positive refresh period is a usage error, not a ticker panic.
	for _, iv := range []string{"0", "-1s"} {
		if err := cmdStatus([]string{"-watch", "-interval", iv, t.TempDir()}); err == nil ||
			!strings.Contains(err.Error(), "-interval must be positive") {
			t.Errorf("-interval %s err = %v", iv, err)
		}
	}
	// A directory without status records surfaces ErrNoStatus.
	if err := cmdStatus([]string{t.TempDir()}); err == nil ||
		!strings.Contains(err.Error(), "no shard status records") {
		t.Errorf("empty-dir err = %v", err)
	}
}

// TestStatusJSONShardOutcomesIsObject: a shard row's `outcomes` is an
// object even for a heartbeat with no completed trial — here the
// committed fixture's initial record, written without the key — never
// null.
func TestStatusJSONShardOutcomesIsObject(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"status", "-dir", filepath.Join("testdata", "fleet"), "-json"})
	})
	var env struct {
		Result struct {
			Shards []struct {
				Index    int             `json:"index"`
				Outcomes json.RawMessage `json:"outcomes"`
			} `json:"shards"`
		} `json:"result"`
	}
	if err := json.Unmarshal([]byte(out), &env); err != nil {
		t.Fatalf("decoding status -json: %v\n%s", err, out)
	}
	if len(env.Result.Shards) != 2 {
		t.Fatalf("got %d shard rows, want 2", len(env.Result.Shards))
	}
	for _, sh := range env.Result.Shards {
		if !strings.HasPrefix(string(sh.Outcomes), "{") {
			t.Errorf("shard %d outcomes = %s, want an object", sh.Index, sh.Outcomes)
		}
	}
}
