package hrmsim

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCharacterizeAdaptiveStopsEarly: an adaptive characterization stops
// at its CI target well inside the trial budget and reports the savings.
func TestCharacterizeAdaptiveStopsEarly(t *testing.T) {
	c, err := Characterize(CharacterizeConfig{
		App:       AppKVStore,
		Error:     SoftSingleBit,
		Size:      SizeSmall,
		Trials:    200,
		Seed:      9,
		TargetCI:  0.08,
		MinTrials: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.TargetCI != 0.08 {
		t.Errorf("TargetCI = %v, want 0.08", c.TargetCI)
	}
	if c.Planned >= c.Trials || c.Planned < 20 {
		t.Fatalf("Planned = %d of %d: the stopping rule did not engage", c.Planned, c.Trials)
	}
	if c.TrialsSaved != c.Trials-c.Planned {
		t.Errorf("TrialsSaved = %d, want %d", c.TrialsSaved, c.Trials-c.Planned)
	}
	if c.Completed != c.Planned {
		t.Errorf("Completed = %d, Planned = %d", c.Completed, c.Planned)
	}
	// The interval actually reached the target.
	if half := (c.CrashCIHigh - c.CrashCILow) / 2; half > 0.08+1e-9 {
		t.Errorf("final CI half-width %v above the 0.08 target", half)
	}
}

// TestCharacterizeAdaptiveResumeEquivalence: an adaptive campaign
// interrupted mid-run and resumed from its journal is bit-identical to
// an uninterrupted one — the planner replays to the same verdicts.
func TestCharacterizeAdaptiveResumeEquivalence(t *testing.T) {
	base := CharacterizeConfig{
		App:       AppKVStore,
		Error:     SoftSingleBit,
		Size:      SizeSmall,
		Trials:    200,
		Seed:      9,
		TargetCI:  0.08,
		MinTrials: 20,
	}
	want, err := Characterize(base)
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(t.TempDir(), "trials.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interruptedCfg := base
	interruptedCfg.JournalPath = journal
	interruptedCfg.Context = ctx
	interruptedCfg.Progress = func(p ProgressInfo) {
		if p.Done == 12 {
			cancel()
		}
	}
	partial, err := Characterize(interruptedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted {
		t.Fatal("interrupted run did not report Interrupted")
	}
	if partial.Completed >= want.Planned {
		t.Fatalf("interrupt raced: %d of %d planned trials completed", partial.Completed, want.Planned)
	}

	resumeCfg := base
	resumeCfg.ResumePath = journal
	got, err := Characterize(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Interrupted {
		t.Error("resumed run reported Interrupted")
	}
	if got.Resumed == 0 {
		t.Error("resumed run resumed nothing")
	}
	wantCmp, gotCmp := *want, *got
	gotCmp.Resumed = wantCmp.Resumed
	if !reflect.DeepEqual(wantCmp, gotCmp) {
		t.Errorf("resumed adaptive characterization diverged:\nbase:    %+v\nresumed: %+v", wantCmp, gotCmp)
	}
}

// TestCharacterizeAdaptiveValidation: the facade rejects inconsistent
// adaptive configurations and the shard/adaptive combination.
func TestCharacterizeAdaptiveValidation(t *testing.T) {
	base := CharacterizeConfig{App: AppKVStore, Error: SoftSingleBit, Size: SizeSmall, Trials: 40, Seed: 1}

	bad := base
	bad.TargetCI = 1.5
	if _, err := Characterize(bad); err == nil {
		t.Error("TargetCI 1.5 accepted")
	}
	bad = base
	bad.TargetCI = -0.1
	if _, err := Characterize(bad); err == nil {
		t.Error("negative TargetCI accepted")
	}
	bad = base
	bad.MinTrials = 10
	if _, err := Characterize(bad); err == nil {
		t.Error("MinTrials without TargetCI accepted")
	}
	bad = base
	bad.TargetCI = 0.05
	bad.ShardIndex, bad.ShardCount = 0, 2
	if _, err := Characterize(bad); err == nil {
		t.Error("sharded adaptive campaign accepted")
	} else if !strings.Contains(err.Error(), "index space") {
		t.Errorf("shard rejection error %v does not explain the conflict", err)
	}
	bad = base
	bad.TargetCI = 0.05
	bad.MinTrials = 50
	if _, err := Characterize(bad); err == nil {
		t.Error("MinTrials above Trials accepted")
	}
}
