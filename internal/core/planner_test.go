package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hrmsim/internal/faults"
	"hrmsim/internal/obsv"
	"hrmsim/internal/stats"
)

func testRule(target float64, min, max int) stats.SequentialStopping {
	return stats.SequentialStopping{TargetHalfWidth: target, Level: 0.90, MinTrials: min, MaxTrials: max}
}

// TestAdaptivePlannerGuardRails: a target wider than any first verdict
// stops at MinTrials; an unreachable target exhausts the budget, which
// a rule naming more trials than the campaign has is clamped to.
func TestAdaptivePlannerGuardRails(t *testing.T) {
	run := func(trials int, rule stats.SequentialStopping) (*CampaignResult, obsv.Snapshot) {
		reg := obsv.NewRegistry()
		res, err := Run(CampaignConfig{
			Builder: kvBuilder(t, 3), Spec: faults.SingleBitSoft, Trials: trials, Seed: 5,
			Parallelism: 3, Planner: NewAdaptivePlanner(rule), RunOptions: RunOptions{Metrics: reg},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, reg.Snapshot()
	}
	loose, snap := run(300, testRule(0.9, 20, 300))
	if len(loose.Trials) != 20 || loose.Planned != 20 || !loose.PlanFinal {
		t.Errorf("loose target ran %d trials, planned %d (final %v), want the 20-trial minimum",
			len(loose.Trials), loose.Planned, loose.PlanFinal)
	}
	if got := snap.Counters["campaign_adaptive_stopped_total"]; got != 1 {
		t.Errorf("loose target: campaign_adaptive_stopped_total = %d, want 1", got)
	}
	if got := snap.Counters["campaign_trials_saved_total"]; got != 280 {
		t.Errorf("loose target: campaign_trials_saved_total = %d, want 280", got)
	}

	tight, snap := run(120, testRule(0.0001, 10, 300))
	if len(tight.Trials) != 120 || tight.Planned != 120 || !tight.PlanFinal {
		t.Errorf("unreachable target ran %d trials, planned %d (final %v), want the whole 120-trial budget",
			len(tight.Trials), tight.Planned, tight.PlanFinal)
	}
	// An exhausted budget is no stop at the target and saves nothing.
	for _, name := range []string{"campaign_adaptive_stopped_total", "campaign_trials_saved_total"} {
		if got := snap.Counters[name]; got != 0 {
			t.Errorf("unreachable target: %s = %d, want 0", name, got)
		}
	}
}

// TestAdaptivePlannerRejectsShards: RunContext rejects an adaptive plan
// under a shard spec, even a 1-shard one whose journal merge would count
// the trials past the stop as missing, and explains why.
func TestAdaptivePlannerRejectsShards(t *testing.T) {
	for _, shard := range []ShardSpec{{Index: 0, Count: 2}, {Index: 0, Count: 1}} {
		_, err := Run(CampaignConfig{
			Builder: wsBuilder(t, 2),
			Spec:    faults.SingleBitSoft,
			Trials:  40,
			Seed:    7,
			Planner: NewAdaptivePlanner(testRule(0.05, 10, 40)),
			Shard:   &shard,
		})
		if err == nil {
			t.Errorf("Run accepted adaptive shard %v", shard)
		} else if !strings.Contains(err.Error(), "index space") {
			t.Errorf("shard rejection %v does not explain the conflict", err)
		}
	}
}

// TestAdaptiveCampaignParallelismInvariant: a real adaptive campaign
// produces bit-identical results and planner decisions at parallelism 1
// and 4, and its result bookkeeping matches the stop boundary.
func TestAdaptiveCampaignParallelismInvariant(t *testing.T) {
	base := CampaignConfig{
		Builder: wsBuilder(t, 2),
		Spec:    faults.SingleBitSoft,
		Trials:  120,
		Seed:    7,
	}
	run := func(par int) *CampaignResult {
		cfg := base
		cfg.Parallelism = par
		cfg.Planner = NewAdaptivePlanner(testRule(0.15, 10, 120))
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if !reflect.DeepEqual(a.Trials, b.Trials) {
		t.Error("adaptive campaign results differ across parallelism")
	}
	if !a.PlanFinal || a.Planned != len(a.Trials) {
		t.Errorf("Planned = %d (final %v) with %d trials", a.Planned, a.PlanFinal, len(a.Trials))
	}
	if a.Planned >= a.Requested {
		t.Errorf("adaptive plan saved nothing: planned %d of %d", a.Planned, a.Requested)
	}
	// The same indices run under the fixed plan give identical trial
	// results: the planner changes which trials run, never their content.
	fixed, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Trials, fixed.Trials[:len(a.Trials)]) {
		t.Error("adaptive trials are not a prefix of the fixed campaign's")
	}
}

// TestAdaptiveCampaignReplaysJournal: an adaptive campaign journals its
// trials and nothing else, and a run resumed from that journal replays
// rather than re-runs.
func TestAdaptiveCampaignReplaysJournal(t *testing.T) {
	meta := JournalMeta{App: "websearch", Error: "soft-1bit", Trials: 120, Seed: 7,
		TargetCI: 0.15, CILevel: 0.90, MinTrials: 10, MaxTrials: 120}
	var buf bytes.Buffer
	j, err := NewJournal(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{
		Builder: wsBuilder(t, 2),
		Spec:    faults.SingleBitSoft,
		Trials:  120,
		Seed:    7,
		Planner: NewAdaptivePlanner(testRule(0.15, 10, 120)),
		Journal: j,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	gotMeta, trials, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.TargetCI != meta.TargetCI || gotMeta.MinTrials != meta.MinTrials {
		t.Errorf("journal meta lost the adaptive identity: %+v", gotMeta)
	}
	if len(trials) != len(res.Trials) {
		t.Errorf("journal holds %d trials, campaign ran %d", len(trials), len(res.Trials))
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 1+len(res.Trials) {
		t.Errorf("journal has %d lines, want the header and %d trial records", lines, len(res.Trials))
	}

	// Resuming from the complete journal replays every trial and reaches
	// the same verdict without running anything new.
	cfg2 := cfg
	cfg2.Journal = nil
	cfg2.Planner = NewAdaptivePlanner(testRule(0.15, 10, 120))
	cfg2.Resume = trials
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != len(res.Trials) {
		t.Errorf("replay resumed %d of %d trials", res2.Resumed, len(res.Trials))
	}
	if !reflect.DeepEqual(res.Trials, res2.Trials) || res2.Planned != res.Planned {
		t.Error("replayed adaptive campaign diverged")
	}
}

// TestAdaptiveResumeAcrossBoundary: an adaptive campaign resumed from a
// journal prefix that crosses an evaluation boundary and ends inside the
// next segment finishes with the uninterrupted run's trials and plan; a
// resume from the complete journal replays the stop without counting it.
func TestAdaptiveResumeAcrossBoundary(t *testing.T) {
	rule := testRule(0.1, 10, 120)
	meta := JournalMeta{App: "graphmine", Error: "hard-1bit", Trials: 120, Seed: 7,
		TargetCI: rule.TargetHalfWidth, CILevel: rule.Level, MinTrials: rule.MinTrials, MaxTrials: rule.MaxTrials}
	var buf bytes.Buffer
	j, err := NewJournal(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	base := CampaignConfig{
		Builder:     gmBuilder(t, 2),
		Spec:        faults.SingleBitHard,
		Trials:      120,
		Seed:        7,
		Parallelism: 2,
	}
	run := func(resume map[int]TrialResult, journal *Journal) (*CampaignResult, obsv.Snapshot) {
		cfg := base
		cfg.Planner = NewAdaptivePlanner(rule)
		cfg.Resume = resume
		cfg.Journal = journal
		cfg.Metrics = obsv.NewRegistry()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, cfg.Metrics.Snapshot()
	}
	full, fullSnap := run(nil, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Boundaries 10, 18, ...: a prefix of 14 trials crosses the first
	// and ends inside the second segment.
	const prefix = 14
	if !full.PlanFinal || full.Planned <= 18 || full.Planned >= full.Requested {
		t.Fatalf("uninterrupted plan %d (final %v) does not cross the second boundary and stop early",
			full.Planned, full.PlanFinal)
	}
	saved := int64(full.Requested - full.Planned)
	if got := fullSnap.Counters["campaign_adaptive_stopped_total"]; got != 1 {
		t.Errorf("uninterrupted campaign_adaptive_stopped_total = %d, want 1", got)
	}
	if got := fullSnap.Counters["campaign_trials_saved_total"]; got != saved {
		t.Errorf("uninterrupted campaign_trials_saved_total = %d, want %d", got, saved)
	}
	_, records, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(full.Trials) {
		t.Fatalf("journal holds %d trials, campaign ran %d", len(records), len(full.Trials))
	}

	partial := make(map[int]TrialResult, prefix)
	for i := 0; i < prefix; i++ {
		partial[i] = records[i]
	}
	resumed, snap := run(partial, nil)
	if resumed.Resumed != prefix {
		t.Errorf("resumed %d trials, want %d", resumed.Resumed, prefix)
	}
	if !reflect.DeepEqual(resumed.Trials, full.Trials) {
		t.Error("resumed adaptive campaign's trials differ from the uninterrupted run's")
	}
	if resumed.Planned != full.Planned || resumed.PlanFinal != full.PlanFinal {
		t.Errorf("resumed plan %d (final %v), uninterrupted %d (final %v)",
			resumed.Planned, resumed.PlanFinal, full.Planned, full.PlanFinal)
	}
	if got := snap.Counters["campaign_adaptive_stopped_total"]; got != 1 {
		t.Errorf("mid-segment resume: campaign_adaptive_stopped_total = %d, want 1", got)
	}

	replayed, snap := run(records, nil)
	if !reflect.DeepEqual(replayed.Trials, full.Trials) || replayed.Planned != full.Planned || !replayed.PlanFinal {
		t.Errorf("replayed plan %d (final %v) diverged from %d", replayed.Planned, replayed.PlanFinal, full.Planned)
	}
	for _, name := range []string{"campaign_adaptive_stopped_total", "campaign_trials_saved_total"} {
		if got := snap.Counters[name]; got != 0 {
			t.Errorf("replayed stop: %s = %d, want 0", name, got)
		}
	}
	if _, ok := snap.Gauges["campaign_ci_half_width"]; !ok {
		t.Error("replayed stop did not report campaign_ci_half_width")
	}
}

// TestJournalMetaAdaptiveMismatch: resuming an adaptive journal under a
// different stopping configuration is rejected by Matches.
func TestJournalMetaAdaptiveMismatch(t *testing.T) {
	a := JournalMeta{App: "websearch", Error: "soft-1bit", Trials: 100, Seed: 1,
		TargetCI: 0.05, CILevel: 0.90, MinTrials: 30, MaxTrials: 100}
	cases := []func(*JournalMeta){
		func(m *JournalMeta) { m.TargetCI = 0.02 },
		func(m *JournalMeta) { m.CILevel = 0.95 },
		func(m *JournalMeta) { m.MinTrials = 10 },
		func(m *JournalMeta) { m.MaxTrials = 80 },
	}
	for i, mutate := range cases {
		b := a
		mutate(&b)
		if err := a.Matches(b); err == nil {
			t.Errorf("case %d: mismatched adaptive meta accepted", i)
		}
	}
	if err := a.Matches(a); err != nil {
		t.Errorf("identical adaptive meta rejected: %v", err)
	}
}
