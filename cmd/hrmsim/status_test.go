// `hrmsim status` tests: the fleet view's rendering, its -watch loop and
// its flag contract.
package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hrmsim"
	"hrmsim/internal/core"
)

// TestStatusWatchWaitsForEveryShard: -watch keeps polling while a shard
// of the campaign has not started yet, although every journal present
// ends in its trailer, and returns once the last shard's trailer lands.
func TestStatusWatchWaitsForEveryShard(t *testing.T) {
	dir := t.TempDir()
	shard := func(i int) hrmsim.CharacterizeConfig {
		return hrmsim.CharacterizeConfig{App: hrmsim.AppKVStore, Size: hrmsim.SizeSmall, Trials: 40, Seed: 3,
			ShardIndex: i, ShardCount: 2, JournalPath: filepath.Join(dir, core.ShardJournalName(i, 2))}
	}
	if _, err := hrmsim.Characterize(shard(0)); err != nil {
		t.Fatal(err)
	}

	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	printed := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = io.Copy(&buf, r)
		printed <- buf.String()
	}()
	done := make(chan error, 1)
	go func() { done <- cmdStatus([]string{"-watch", "-interval", "10ms", dir}) }()
	finish := func() string {
		os.Stdout = old
		_ = w.Close()
		return <-printed
	}

	select {
	case err := <-done:
		out := finish()
		t.Fatalf("watch returned (err %v) with shard 1 not yet started:\n%s", err, out)
	case <-time.After(200 * time.Millisecond):
	}
	if _, err := hrmsim.Characterize(shard(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		out := finish()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "1/2 shard(s) reporting, 0 running") ||
			!strings.Contains(out, "40/40 trials (100%) | 2/2 shard(s) reporting, 0 running") {
			t.Errorf("watch output lacks the waiting and the settled views:\n%s", out)
		}
	case <-time.After(30 * time.Second):
		os.Stdout = old
		t.Fatal("watch did not return after every shard finished")
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
	// A directory without journals surfaces ErrNoStatus.
	if err := cmdStatus([]string{t.TempDir()}); err == nil ||
		!strings.Contains(err.Error(), "no shard journals") {
		t.Errorf("empty-dir err = %v", err)
	}
}

// TestStatusJSONShardOutcomesIsObject: a shard row's `outcomes` is an
// object even for a shard with no completed trial — here the committed
// fixture's header-only journal — never null.
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
