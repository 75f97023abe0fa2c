package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hrmsim/internal/core"
)

// goldenDoc is the deterministic part of a -json envelope. The metrics
// section is left out: it carries wall-clock histograms.
type goldenDoc struct {
	SchemaVersion int             `json:"schema_version"`
	Tool          string          `json:"tool"`
	Command       string          `json:"command"`
	Interrupted   bool            `json:"interrupted,omitempty"`
	Result        json.RawMessage `json:"result"`
	Shard         json.RawMessage `json:"shard,omitempty"`
	Merged        json.RawMessage `json:"merged,omitempty"`
}

var profileGraphmine = []string{"profile", "-app", "graphmine", "-size", "small", "-watchpoints", "60", "-json"}

var ageSeconds = regexp.MustCompile(`"age_seconds": [-+.e0-9]+`)

// TestGoldenWireShape pins the -json wire shape of the seeded,
// deterministic subcommands against committed documents: every key, in
// emission order, every value, and empty slices as [] rather than null.
// The raw sections are re-indented, never re-keyed, so a renamed,
// reordered, dropped or nulled field fails the byte comparison.
func TestGoldenWireShape(t *testing.T) {
	dir := t.TempDir()
	shard := func(idx int) []string {
		return []string{"characterize", "-app", "kvstore", "-size", "small",
			"-trials", "24", "-seed", "6", "-parallelism", "2", "-shard", fmt.Sprintf("%d/2", idx),
			"-journal", filepath.Join(dir, core.ShardJournalName(idx, 2)), "-json"}
	}
	// Order matters: merge consumes the two shard journals.
	cases := []struct {
		name string
		args []string
	}{
		// Seven watchpoints leave the stack region unsampled, so the
		// document holds both a filled and an empty safe_ratios list.
		{"profile", []string{"profile", "-app", "kvstore", "-size", "small", "-watchpoints", "7", "-json"}},
		// 59 heap ratios of mixed values, in sample-draw order.
		{"profile-graphmine", profileGraphmine},
		// WebSearch, whose window Fig. 5b and Table 5 also read: three
		// regions at the default 300 watchpoints.
		{"profile-websearch", []string{"profile", "-app", "websearch", "-size", "small", "-json"}},
		{"designspace", []string{"designspace", "-json"}},
		{"plan", []string{"plan", "-target", "0.999", "-json"}},
		{"tables-table1", []string{"tables", "-t", "table1", "-trials", "10", "-json"}},
		// Region sizes per application: no campaigns, so the per-size
		// workload geometry is pinned through the experiments path.
		{"tables-table3", []string{"tables", "-t", "table3", "-json"}},
		{"characterize-shard-0of2", shard(0)},
		{"characterize-shard-1of2", shard(1)},
		{"merge", []string{"merge", "-dir", dir, "-json"}},
		// Two hand-written shard journals: a finished shard whose
		// records and trailer set every optional field of a fixed
		// campaign's row, and the header of a shard just started.
		{"status", []string{"status", "-dir", filepath.Join("testdata", "fleet"), "-json"}},
		{"characterize-adaptive", []string{"characterize", "-app", "kvstore", "-size", "small",
			"-trials", "120", "-seed", "6", "-parallelism", "2", "-target-ci", "0.1", "-json"}},
		{"lifetime", []string{"lifetime", "-hours", "1", "-errors", "50000", "-json"}},
		{"tolerable", []string{"tolerable", "-json"}},
		// Every experiment ID at 20 trials per cell: the grid-level
		// reference for each cell's numbers.
		{"tables-grid", []string{"tables", "-trials", "20", "-json"}},
	}
	for _, tc := range cases {
		out := captureStdout(t, func() error { return run(tc.args) })
		// Journal paths in the merged section name the scratch directory.
		out = strings.ReplaceAll(out, dir, "DIR")
		// A journal's age is measured against the wall clock.
		out = ageSeconds.ReplaceAllString(out, `"age_seconds": 0`)
		var doc goldenDoc
		dec := json.NewDecoder(strings.NewReader(out))
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("%s: -json output is not valid JSON: %v\n%s", tc.name, err, out)
		}
		got, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		path := filepath.Join("testdata", "golden", tc.name+".json")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: -json wire shape differs from %s\ngot:\n%s\nwant:\n%s", tc.name, path, got, want)
		}
	}
}

// TestProfileJSONDeterministic: three runs of one profile give the same
// document byte for byte — safe ratios come in sample-draw order, not in
// the iteration order of a map.
func TestProfileJSONDeterministic(t *testing.T) {
	first := captureStdout(t, func() error { return run(profileGraphmine) })
	for i := 1; i < 3; i++ {
		if out := captureStdout(t, func() error { return run(profileGraphmine) }); out != first {
			t.Fatalf("run %d differs from the first:\n%s\nfirst:\n%s", i+1, out, first)
		}
	}
}
