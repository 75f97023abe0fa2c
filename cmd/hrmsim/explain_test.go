package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hrmsim"
	"hrmsim/internal/core"
)

// TestGoldenExplain pins explain's text for two trials of a seeded kvstore
// journal: trial 2, simulated to a crash, and trial 0, decided from the
// fault-free window.
func TestGoldenExplain(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "kvstore.jsonl")
	captureStdout(t, func() error {
		return run([]string{"characterize", "-app", "kvstore", "-size", "small", "-error", "hard-1bit",
			"-trials", "24", "-seed", "6", "-journal", journal})
	})
	var got strings.Builder
	for _, trial := range []string{"2", "0"} {
		got.WriteString(captureStdout(t, func() error { return run([]string{"explain", journal, trial}) }))
	}
	path := filepath.Join("testdata", "golden", "explain-kvstore.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("explain output differs from %s\ngot:\n%s\nwant:\n%s", path, got.String(), want)
	}
	for _, args := range [][]string{{journal}, {journal, "two"}, {journal, "0", "1"}} {
		if err := run(append([]string{"explain"}, args...)); err == nil {
			t.Errorf("explain %v accepted", args)
		}
	}
}

// TestCharacterizeRefusesRegionWithoutBytes: a region filter that passes
// no used byte of the application fails the campaign, naming the regions
// the application maps, instead of printing probabilities over zero
// completed trials — in text and in -json.
func TestCharacterizeRefusesRegionWithoutBytes(t *testing.T) {
	for _, extra := range [][]string{nil, {"-json"}} {
		args := append([]string{"characterize", "-app", "kvstore", "-size", "small",
			"-region", "private", "-trials", "50"}, extra...)
		var err error
		out := captureStdout(t, func() error { err = run(args); return nil })
		if err == nil || !strings.Contains(err.Error(), "kvstore maps heap, stack") {
			t.Errorf("%v: err = %v, want the refusal naming kvstore's regions", args, err)
		}
		if out != "" {
			t.Errorf("%v printed a result:\n%s", args, out)
		}
	}
}

// TestCharacterizeJSONKeepsDeciding: -json adds a metrics registry and
// nothing else, so the campaign decides as many trials as a run with only
// -journal, whose trailer carries its metrics, and its result is an
// uninstrumented run's.
func TestCharacterizeJSONKeepsDeciding(t *testing.T) {
	args := []string{"characterize", "-app", "websearch", "-size", "small", "-trials", "200", "-seed", "1"}
	dir := t.TempDir()
	captureStdout(t, func() error { return run(append(args, "-journal", filepath.Join(dir, "run.jsonl"))) })
	shards, err := core.LoadShardDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := shards[0].Final.Metrics.Counters["campaign_trials_decided_total"]
	if want == 0 {
		t.Fatal("the -journal run decided nothing; the comparison below would prove nothing")
	}

	out := captureStdout(t, func() error { return run(append(args, "-json")) })
	var env struct {
		Result  json.RawMessage `json:"result"`
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out), &env); err != nil {
		t.Fatal(err)
	}
	if got := env.Metrics.Counters["campaign_trials_decided_total"]; got != want {
		t.Errorf("-json decided %d trials, -journal alone %d", got, want)
	}

	plain, err := hrmsim.Characterize(hrmsim.CharacterizeConfig{
		App: hrmsim.AppWebSearch, Size: hrmsim.SizeSmall, Trials: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(toCharacterizeJSON(plain))
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact.Bytes(), b) {
		t.Errorf("-json result differs from an uninstrumented run's\n-json: %s\nplain: %s", compact.Bytes(), b)
	}
}
