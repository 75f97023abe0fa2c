package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"hrmsim"
	"hrmsim/internal/core"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := fn()
	_ = w.Close()
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v (output %q)", ferr, out)
	}
	return out
}

// decodeEnvelope parses one -json document and checks the envelope
// contract: the current schema_version, tool hrmsim, the expected
// command, and a result object.
func decodeEnvelope(t *testing.T, out, command string) map[string]any {
	t.Helper()
	var env map[string]any
	if err := json.Unmarshal([]byte(out), &env); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if v, ok := env["schema_version"].(float64); !ok || v != float64(schemaVersion) {
		t.Errorf("schema_version = %v", env["schema_version"])
	}
	if env["tool"] != "hrmsim" {
		t.Errorf("tool = %v", env["tool"])
	}
	if env["command"] != command {
		t.Errorf("command = %v, want %s", env["command"], command)
	}
	res, ok := env["result"].(map[string]any)
	if !ok {
		t.Fatalf("result is not an object: %v", env["result"])
	}
	return res
}

func TestCharacterizeJSONRoundTrip(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"characterize", "-app", "kvstore", "-size", "small",
			"-trials", "20", "-json"})
	})
	res := decodeEnvelope(t, out, "characterize")
	for _, key := range []string{"app", "error", "region", "trials",
		"crash_probability", "crash_ci_low", "crash_ci_high",
		"tolerated_probability", "incorrect_per_billion",
		"max_incorrect_per_billion", "outcomes", "crash_minutes",
		"incorrect_minutes", "all_incorrect_minutes"} {
		if _, ok := res[key]; !ok {
			t.Errorf("result missing documented key %q", key)
		}
	}
	if res["app"] != "kvstore" || res["trials"] != float64(20) {
		t.Errorf("result identity fields: app=%v trials=%v", res["app"], res["trials"])
	}
	outcomes, ok := res["outcomes"].(map[string]any)
	if !ok {
		t.Fatalf("outcomes: %v", res["outcomes"])
	}
	var total float64
	for _, n := range outcomes {
		total += n.(float64)
	}
	if total != 20 {
		t.Errorf("outcomes sum to %g, want 20", total)
	}

	// The instrumented campaign metrics ride along in the envelope.
	var env struct {
		Metrics struct {
			Counters   map[string]int64          `json:"counters"`
			Histograms map[string]map[string]any `json:"histograms"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out), &env); err != nil {
		t.Fatal(err)
	}
	if env.Metrics.Counters["campaign_trials_total"] != 20 {
		t.Errorf("campaign_trials_total = %d", env.Metrics.Counters["campaign_trials_total"])
	}
	if _, ok := env.Metrics.Histograms["campaign_trial_wall_ms"]; !ok {
		t.Error("campaign_trial_wall_ms histogram missing from metrics")
	}
}

func TestAllSubcommandsEmitValidJSON(t *testing.T) {
	cases := map[string][]string{
		"profile":     {"profile", "-app", "kvstore", "-size", "small", "-watchpoints", "60", "-json"},
		"designspace": {"designspace", "-json"},
		"plan":        {"plan", "-target", "0.999", "-json"},
		"tolerable":   {"tolerable", "-json"},
		"lifetime":    {"lifetime", "-hours", "1", "-errors", "50000", "-json"},
		"tables":      {"tables", "-t", "table1", "-trials", "10", "-json"},
	}
	for command, args := range cases {
		out := captureStdout(t, func() error { return run(args) })
		res := decodeEnvelope(t, out, command)
		if len(res) == 0 {
			t.Errorf("%s: empty result", command)
		}
	}
}

func TestCharacterizeProgressGoesToStderr(t *testing.T) {
	oldErr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = io.Copy(&buf, r)
		done <- buf.String()
	}()
	out := captureStdout(t, func() error {
		return run([]string{"characterize", "-app", "kvstore", "-size", "small",
			"-trials", "20", "-json", "-progress"})
	})
	_ = w.Close()
	os.Stderr = oldErr
	errOut := <-done

	if !strings.Contains(errOut, "characterize: 20/20 trials (100%)") {
		t.Errorf("progress line missing from stderr: %q", errOut)
	}
	// stdout stays pure JSON even with -progress.
	decodeEnvelope(t, out, "characterize")
}

func TestRunDispatch(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no subcommand accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
}

func TestCmdCharacterizeSmall(t *testing.T) {
	err := run([]string{"characterize", "-app", "kvstore", "-size", "small", "-trials", "20"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCmdCharacterizeBadFlags(t *testing.T) {
	if err := run([]string{"characterize", "-size", "jumbo"}); err == nil {
		t.Error("bad size accepted")
	}
	if err := run([]string{"characterize", "-app", "nope", "-trials", "1"}); err == nil {
		t.Error("bad app accepted")
	}
	// A bad flag is an error from run(), not an os.Exit inside it.
	if err := run([]string{"chaos", "-no-such-flag"}); err == nil {
		t.Error("unknown chaos flag accepted")
	}
}

func TestCmdProfileSmall(t *testing.T) {
	err := run([]string{"profile", "-app", "kvstore", "-size", "small", "-watchpoints", "60"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"profile", "-app", "kvstore", "-size", "small", "-watchpoints", "-1"}); err == nil {
		t.Error("negative watchpoint count accepted")
	}
}

func TestCmdDesignSpaceAndPlanAndTolerable(t *testing.T) {
	if err := run([]string{"designspace"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"plan", "-target", "0.999"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"tolerable"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdTablesSingle(t *testing.T) {
	if err := run([]string{"tables", "-t", "table1", "-trials", "10"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"tables", "-t", "fig99", "-trials", "10"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestCmdLifetimeShort(t *testing.T) {
	if err := run([]string{"lifetime", "-hours", "1", "-errors", "50000"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"lifetime", "-protection", "asbestos"}); err == nil {
		t.Error("bad protection accepted")
	}
}

// TestCmdCharacterizeJournalResume: the -journal / -resume flags write a
// trial journal and replay it, with the resumed trial count surfaced in
// the -json result.
func TestCmdCharacterizeJournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "trials.jsonl")
	args := []string{"characterize", "-app", "kvstore", "-size", "small",
		"-trials", "15", "-seed", "7", "-json"}

	out := captureStdout(t, func() error {
		return run(append(args, "-journal", journal))
	})
	base := decodeEnvelope(t, out, "characterize")
	if base["completed_trials"] != float64(15) {
		t.Fatalf("completed_trials = %v", base["completed_trials"])
	}
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("journal not written: %v", err)
	}

	out = captureStdout(t, func() error {
		return run(append(args, "-resume", journal))
	})
	res := decodeEnvelope(t, out, "characterize")
	if res["resumed_trials"] != float64(15) {
		t.Errorf("resumed_trials = %v, want 15", res["resumed_trials"])
	}
	for _, key := range []string{"crash_probability", "tolerated_probability", "outcomes"} {
		if !reflect.DeepEqual(res[key], base[key]) {
			t.Errorf("resumed %s = %v, baseline %v", key, res[key], base[key])
		}
	}

	// A mismatched campaign identity is rejected.
	if err := run([]string{"characterize", "-app", "kvstore", "-size", "small",
		"-trials", "15", "-seed", "8", "-resume", journal, "-json"}); err == nil {
		t.Error("resume with a different seed accepted")
	}
}

// TestStrayArgumentsRefused: every subcommand refuses an argument its
// flags leave over and names it, before doing any work. Flag parsing
// stops at the first non-flag, so unchecked, `profile kvstore -size
// small` would profile websearch at the default size, and a trailing
// word would be dropped.
func TestStrayArgumentsRefused(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args  []string
		stray string
	}{
		{[]string{"characterize", "-app", "kvstore", "-size", "small", "-trials", "2", "stray"}, `"stray"`},
		{[]string{"characterize", "kvstore", "-size", "small"}, `"kvstore" "-size" "small"`},
		{[]string{"merge", dir, "stray"}, `"stray"`},
		{[]string{"merge", "-dir", dir, "stray"}, `"stray"`},
		{[]string{"status", dir, "stray"}, `"stray"`},
		{[]string{"status", "-dir", dir, "stray"}, `"stray"`},
		{[]string{"profile", "kvstore", "-size", "small", "-watchpoints", "10"}, `"kvstore"`},
		{[]string{"designspace", "stray"}, `"stray"`},
		{[]string{"plan", "stray"}, `"stray"`},
		{[]string{"tolerable", "stray"}, `"stray"`},
		{[]string{"lifetime", "-hours", "1", "stray"}, `"stray"`},
		{[]string{"chaos", "-steady", "10", "-chaos", "10", "-recovery", "10", "stray"}, `"stray"`},
		{[]string{"tables", "-t", "table1", "-trials", "10", "stray"}, `"stray"`},
		{[]string{"explain", "journal.jsonl", "1", "stray"}, `"stray"`},
	} {
		out := captureStdout(t, func() error {
			err := run(c.args)
			if err == nil || !strings.Contains(err.Error(), "unexpected argument(s) "+c.stray) {
				t.Errorf("%s: err = %v, want one naming %s", strings.Join(c.args, " "), err, c.stray)
			}
			return nil
		})
		if out != "" {
			t.Errorf("%s: printed %q before refusing", strings.Join(c.args, " "), out)
		}
	}
	// The watchdog flags are gone: each trial has one attempt, and a
	// runaway request ends as a crash through its app's request budget.
	// The status-record flags are gone too: a shard's journal is its
	// one file.
	for _, f := range []string{"-trial-timeout", "-trial-op-budget", "-status", "-status-interval"} {
		err := run([]string{"characterize", f, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+f) {
			t.Errorf("characterize %s: err = %v, want an undefined-flag error", f, err)
		}
	}
}

// TestNegativeValuesRefused: a negative count, duration or budget is an
// error that names its flag, never a silent "unset"; zero keeps its
// documented meaning.
func TestNegativeValuesRefused(t *testing.T) {
	small := func(extra ...string) []string {
		return append([]string{"characterize", "-app", "kvstore", "-size", "small", "-trials", "2"}, extra...)
	}
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-parallelism", small("-parallelism", "-3")},
		{"-recovery", []string{"lifetime", "-hours", "1", "-recovery", "-5"}},
		{"-injections", []string{"chaos", "-injections", "-3"}},
		{"-steady", []string{"chaos", "-steady", "-1"}},
		{"-chaos", []string{"chaos", "-chaos", "-1"}},
		{"-recovery", []string{"chaos", "-recovery", "-1"}},
		{"-checkpoint", []string{"chaos", "-checkpoint", "-1s"}},
		{"-read-fraction", []string{"chaos", "-read-fraction", "-0.5"}},
	} {
		if err := run(c.args); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s: err = %v, want an error naming %s", strings.Join(c.args, " "), err, c.flag)
		}
	}
}

// TestNoCompletedTrials: a campaign whose every trial aborted fails and
// names the abort reasons instead of reporting a 0 % crash probability,
// and a result with no completed trial (an empty shard) prints no
// estimate. The all-aborted campaign is a finished shard journal holding
// records of the kind earlier builds wrote, whose watchdogs aborted
// trials as "deadline" and "op_budget": merge still reads those records
// and names both reasons.
func TestNoCompletedTrials(t *testing.T) {
	dir := t.TempDir()
	meta := core.JournalMeta{App: "kvstore", Error: "soft-1bit", Trials: 4, Seed: 1, Size: int64(hrmsim.SizeSmall)}
	name := core.ShardJournalName(0, 1)
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	j, err := core.NewJournal(f, meta)
	if err != nil {
		t.Fatal(err)
	}
	for i, reason := range []string{"deadline", "op_budget", "op_budget", "deadline"} {
		if err := j.Append(core.TrialResult{Index: i, Disposition: core.DispositionAborted, AbortReason: reason}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finish(core.JournalFinal{}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"merge", "-dir", dir, "-json"})
	if err == nil || !strings.Contains(err.Error(), "no trial completed") ||
		!strings.Contains(err.Error(), "deadline:2") || !strings.Contains(err.Error(), "op_budget:2") {
		t.Errorf("all-aborted merge: err = %v, want a no-trial-completed error naming deadline:2 and op_budget:2", err)
	}
	// -trials 1 -shard 0/2 owns [0,0); -progress sees a zero Total.
	out := captureStdout(t, func() error {
		return run([]string{"characterize", "-app", "kvstore", "-size", "small", "-trials", "1",
			"-shard", "0/2", "-progress"})
	})
	if !strings.Contains(out, "no completed trials") || strings.Contains(out, "crash probability") {
		t.Errorf("empty shard report:\n%s\nwant \"no completed trials\" and no estimate", out)
	}
}

// TestMain lets the test binary stand in for hrmsim: with
// HRMSIM_TEST_MAIN set it runs main on its arguments, so a test can see
// what the command itself prints.
func TestMain(m *testing.M) {
	if os.Getenv("HRMSIM_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs hrmsim with args in a child process and returns its
// stderr and whether it exited with status 1.
func runMain(t *testing.T, args ...string) (string, bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HRMSIM_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	exit, ok := err.(*exec.ExitError)
	return stderr.String(), ok && exit.ExitCode() == 1
}

// TestErrorsCarryOnePrefix: a failed command prints its error with one
// "hrmsim: " prefix, whether the facade or the command made the error.
func TestErrorsCarryOnePrefix(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	for _, args := range [][]string{
		{"merge", "-dir", missing},
		{"status", "-dir", missing},
		{"explain", missing, "1"},
		{"characterize", "-app", "nope"},
		{"frobnicate"},
	} {
		stderr, failed := runMain(t, args...)
		lines := strings.Split(strings.TrimSpace(stderr), "\n")
		last := lines[len(lines)-1]
		if !failed || !strings.HasPrefix(last, "hrmsim: ") || strings.HasPrefix(last, "hrmsim: hrmsim:") {
			t.Errorf("hrmsim %s: exit 1 %v, error line %q", strings.Join(args, " "), failed, last)
		}
	}
}

// TestHelpValueNames: no subcommand's -h shows a value name with a space
// in it. The flag package names a flag's value by the first back-quoted
// word of its usage, so a quoted phrase there reads as the value name.
func TestHelpValueNames(t *testing.T) {
	help, _ := runMain(t, "help")
	subs := regexp.MustCompile(`(?m)^  ([a-z]+)  `).FindAllStringSubmatch(help, -1)
	if len(subs) < 10 {
		t.Fatalf("help lists %d subcommands:\n%s", len(subs), help)
	}
	for _, sub := range subs {
		out, _ := runMain(t, sub[1], "-h")
		for _, line := range strings.Split(out, "\n") {
			flagLine, ok := strings.CutPrefix(line, "  -")
			if !ok {
				continue
			}
			flagLine, _, _ = strings.Cut(flagLine, "\t")
			if _, value, ok := strings.Cut(flagLine, " "); ok && strings.Contains(value, " ") {
				t.Errorf("%s -h: value name %q has a space", sub[1], value)
			}
		}
	}
}
