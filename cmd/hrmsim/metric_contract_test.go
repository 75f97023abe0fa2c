package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"hrmsim"
	"hrmsim/internal/core"
	"hrmsim/internal/obsv"
)

// metricRow matches one row of an OBSERVABILITY.md metric table: a
// backticked name (labels allowed) followed by the metric kind.
var metricRow = regexp.MustCompile("^\\| `([a-z0-9_]+)(?:\\{[^`]*\\})?` \\| (?:counter|gauge|histogram) \\|")

// addSnapshotNames records every metric name of snap, labels stripped.
func addSnapshotNames(names map[string]bool, snap *obsv.Snapshot) {
	if snap == nil {
		return
	}
	add := func(name string) {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		names[name] = true
	}
	for n := range snap.Counters {
		add(n)
	}
	for n := range snap.Gauges {
		add(n)
	}
	for n := range snap.Histograms {
		add(n)
	}
}

// envelopeMetrics runs one -json subcommand and returns the envelope's
// metrics snapshot.
func envelopeMetrics(t *testing.T, args ...string) *obsv.Snapshot {
	t.Helper()
	out := captureStdout(t, func() error { return run(args) })
	var env struct {
		Metrics *obsv.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out), &env); err != nil {
		t.Fatalf("%v: -json output is not valid JSON: %v", args, err)
	}
	if env.Metrics == nil {
		t.Fatalf("%v: envelope carries no metrics", args)
	}
	return env.Metrics
}

// TestMetricContract checks the metric tables of OBSERVABILITY.md against
// the registries the binaries build, in both directions: every name a run
// registers has a row, and every row is registered by some run.
func TestMetricContract(t *testing.T) {
	registered := make(map[string]bool)
	dir := t.TempDir()

	// A journaled adaptive campaign: the campaign and adaptive-planner
	// families.
	addSnapshotNames(registered, envelopeMetrics(t, "characterize", "-app", "kvstore", "-size", "small",
		"-trials", "120", "-seed", "6", "-parallelism", "2", "-target-ci", "0.1",
		"-journal", filepath.Join(dir, "adaptive.jsonl"), "-json"))

	// A campaign run as two shards, merged: the shard runs' own
	// registries, their trailer snapshots as the fleet view merges them,
	// and the merge accounting.
	shards := filepath.Join(dir, "shards")
	if err := os.Mkdir(shards, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		journal := filepath.Join(shards, core.ShardJournalName(i, 2))
		addSnapshotNames(registered, envelopeMetrics(t, "characterize", "-app", "kvstore", "-size", "small",
			"-trials", "24", "-seed", "6", "-shard", fmt.Sprintf("%d/2", i),
			"-journal", journal, "-json"))
	}
	addSnapshotNames(registered, envelopeMetrics(t, "merge", "-dir", shards, "-json"))
	fleet, err := hrmsim.LoadFleetStatus(shards)
	if err != nil {
		t.Fatal(err)
	}
	addSnapshotNames(registered, fleet.Metrics)

	// A self-hosted kvnode under a short chaos run driven by the load
	// generator: the kvserve, kvload and chaos families.
	addSnapshotNames(registered, envelopeMetrics(t, chaosArgs("-ecc", "secded", "-json")...))

	doc, err := os.ReadFile(filepath.Join("..", "..", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]bool)
	for _, line := range strings.Split(string(doc), "\n") {
		if m := metricRow.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}
	if len(documented) < 50 {
		t.Fatalf("parsed only %d metric rows from OBSERVABILITY.md; the table format changed", len(documented))
	}

	var undocumented, unregistered []string
	for n := range registered {
		if !documented[n] {
			undocumented = append(undocumented, n)
		}
	}
	for n := range documented {
		if !registered[n] {
			unregistered = append(unregistered, n)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(unregistered)
	if len(undocumented) > 0 {
		t.Errorf("registered but not in an OBSERVABILITY.md metric table: %v", undocumented)
	}
	if len(unregistered) > 0 {
		t.Errorf("in an OBSERVABILITY.md metric table but registered by no run: %v", unregistered)
	}
}
