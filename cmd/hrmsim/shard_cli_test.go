package main

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hrmsim/internal/core"
)

// TestShardMergeCLIRoundTrip drives the full CLI workflow: N
// `characterize -shard i/N -journal` worker runs, then `merge -json`,
// and checks the merged result matches the single-process `-json` run
// field for field (modulo parallelism) plus the envelope's shard/merged
// sections.
func TestShardMergeCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-app", "kvstore", "-size", "small", "-trials", "24", "-seed", "6"}

	single := captureStdout(t, func() error {
		return run(append([]string{"characterize"}, append(base, "-json")...))
	})
	wantRes := decodeEnvelope(t, single, "characterize")

	for _, shard := range []string{"0/2", "1/2"} {
		i := int(shard[0] - '0')
		journal := filepath.Join(dir, core.ShardJournalName(i, 2))
		out := captureStdout(t, func() error {
			return run(append([]string{"characterize"}, append(base,
				"-shard", shard, "-journal", journal, "-json")...))
		})
		var env map[string]any
		if err := json.Unmarshal([]byte(out), &env); err != nil {
			t.Fatal(err)
		}
		sh, ok := env["shard"].(map[string]any)
		if !ok {
			t.Fatalf("shard %s: envelope has no shard section: %v", shard, env["shard"])
		}
		if sh["index"] != float64(i) || sh["count"] != float64(2) {
			t.Errorf("shard %s: envelope shard = %v", shard, sh)
		}
		// -shard with -journal derives the manifest path automatically.
		if _, err := core.ReadManifest(core.ManifestPathFor(journal)); err != nil {
			t.Errorf("shard %s wrote no readable manifest: %v", shard, err)
		}
	}

	merged := captureStdout(t, func() error {
		return run([]string{"merge", "-dir", dir, "-json"})
	})
	gotRes := decodeEnvelope(t, merged, "merge")
	gotRes["parallelism"] = wantRes["parallelism"] // run-shape bookkeeping, documented to differ
	if !reflect.DeepEqual(wantRes, gotRes) {
		t.Errorf("merged result != single-process result\nsingle: %v\nmerged: %v", wantRes, gotRes)
	}

	var env map[string]any
	if err := json.Unmarshal([]byte(merged), &env); err != nil {
		t.Fatal(err)
	}
	m, ok := env["merged"].(map[string]any)
	if !ok {
		t.Fatalf("merge envelope has no merged section: %v", env["merged"])
	}
	if m["records"] != float64(24) {
		t.Errorf("merged.records = %v, want 24", m["records"])
	}
	if shards, ok := m["shards"].([]any); !ok || len(shards) != 2 {
		t.Errorf("merged.shards = %v, want 2 entries", m["shards"])
	}
	if _, ok := m["config_hash"].(string); !ok {
		t.Errorf("merged.config_hash missing: %v", m["config_hash"])
	}
}

// TestMergeRejectsMismatchedShards: shards from two different campaigns
// (different seeds) in one directory must fail the merge.
func TestMergeRejectsMismatchedShards(t *testing.T) {
	dir := t.TempDir()
	for i, seed := range []string{"1", "2"} {
		journal := filepath.Join(dir, core.ShardJournalName(i, 2))
		_ = captureStdout(t, func() error {
			return run([]string{"characterize", "-app", "kvstore", "-size", "small",
				"-trials", "10", "-seed", seed,
				"-shard", []string{"0/2", "1/2"}[i], "-journal", journal})
		})
	}
	err := run([]string{"merge", "-dir", dir})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("merge of mismatched shards: got %v, want different-campaign error", err)
	}
}

// TestShardFlagValidation: malformed or misplaced sharding flags fail
// fast with flag-level errors.
func TestShardFlagValidation(t *testing.T) {
	cases := [][]string{
		{"characterize", "-app", "kvstore", "-shard", "2/2"},                                       // index out of range
		{"characterize", "-app", "kvstore", "-shard", "banana"},                                    // not i/N
		{"characterize", "-app", "kvstore", "-shards", "2"},                                        // -shards without -coordinator
		{"characterize", "-app", "kvstore", "-coordinator"},                                        // -coordinator without -shards
		{"characterize", "-app", "kvstore", "-coordinator", "-shards", "2", "-shard", "0/2"},       // both modes
		{"characterize", "-app", "kvstore", "-coordinator", "-shards", "2", "-journal", "x.jsonl"}, // coordinator owns journals
		{"characterize", "-app", "kvstore", "-coordinator", "-shards", "2", "-manifest", "m.json"}, // coordinator owns manifests
		{"characterize", "-app", "kvstore", "-manifest", "m.json"},                                 // manifest without journal
		{"merge"}, // no directory
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}
