package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hrmsim"
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
	}
	// Each shard leaves one file, its journal, ending in its trailer.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := core.LoadShardDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || len(shards) != 2 || shards[0].Final == nil || shards[1].Final == nil {
		t.Errorf("shard directory holds %d files, %d journals; want the two finished journals alone", len(entries), len(shards))
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

// TestStatusAndMergeSeeSameShards: `status` and `merge` read the same
// journals, so they agree about a directory holding a finished shard
// (a journal ending in its trailer) and a killed one (a partial journal
// without a trailer): status lists both with one still running, and
// merge consumes only the finished shard, reporting the killed range as
// missing.
func TestStatusAndMergeSeeSameShards(t *testing.T) {
	dir := t.TempDir()
	_ = captureStdout(t, func() error {
		return run([]string{"characterize", "-app", "kvstore", "-size", "small", "-trials", "24", "-seed", "6",
			"-shard", "0/2", "-journal", filepath.Join(dir, core.ShardJournalName(0, 2))})
	})
	// Shard 1 dies after a few journaled trials: its journal has no
	// trailer.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := hrmsim.CharacterizeConfig{App: hrmsim.AppKVStore, Size: hrmsim.SizeSmall, Trials: 24, Seed: 6,
		Parallelism: 1, ShardIndex: 1, ShardCount: 2, Context: ctx,
		JournalPath: filepath.Join(dir, core.ShardJournalName(1, 2))}
	killed.Progress = func(p hrmsim.ProgressInfo) {
		if p.Done == 3 {
			cancel()
		}
	}
	if _, err := hrmsim.Characterize(killed); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(killed.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndexByte(b[:len(b)-1], '\n') + 1
	if err := os.WriteFile(killed.JournalPath, b[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	var status struct {
		Result struct {
			Running int `json:"running"`
			Shards  []struct {
				Index   int  `json:"index"`
				Running bool `json:"running"`
			} `json:"shards"`
		} `json:"result"`
	}
	out := captureStdout(t, func() error { return run([]string{"status", "-dir", dir, "-json"}) })
	if err := json.Unmarshal([]byte(out), &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Result.Shards) != 2 || status.Result.Running != 1 || !status.Result.Shards[1].Running {
		t.Fatalf("status = %+v, want shards 0 and 1 with shard 1 still running", status.Result)
	}

	var merge struct {
		Interrupted bool `json:"interrupted"`
		Merged      struct {
			Shards []struct {
				Index int `json:"index"`
			} `json:"shards"`
			Records int `json:"records"`
			Missing int `json:"missing"`
		} `json:"merged"`
	}
	out = captureStdout(t, func() error { return run([]string{"merge", "-dir", dir, "-json"}) })
	if err := json.Unmarshal([]byte(out), &merge); err != nil {
		t.Fatal(err)
	}
	m := merge.Merged
	if len(m.Shards) != 1 || m.Shards[0].Index != 0 || m.Records != 12 || m.Missing != 12 || !merge.Interrupted {
		t.Fatalf("merge = %+v (interrupted %v), want shard 0 alone with shard 1's 12 trials missing",
			m, merge.Interrupted)
	}
}

// TestShardFlagValidation: malformed or misplaced sharding flags fail
// fast with flag-level errors.
func TestShardFlagValidation(t *testing.T) {
	cases := [][]string{
		{"characterize", "-app", "kvstore", "-shard", "2/2"},    // index out of range
		{"characterize", "-app", "kvstore", "-shard", "banana"}, // not i/N
		{"characterize", "-app", "kvstore", "-shard", "0/2x"},   // trailing text
		{"merge"}, // no directory
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}
