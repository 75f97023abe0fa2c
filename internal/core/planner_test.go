package core

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"hrmsim/internal/faults"
	"hrmsim/internal/stats"
)

func testRule(target float64, min, max int) stats.SequentialStopping {
	return stats.SequentialStopping{TargetHalfWidth: target, Level: 0.90, MinTrials: min, MaxTrials: max}
}

// syntheticResult fabricates a deterministic completed trial: every
// fifth index crashes.
func syntheticResult(i int) TrialResult {
	tr := TrialResult{Index: i, Disposition: DispositionCompleted, Outcome: OutcomeMaskedOverwrite}
	if i%5 == 0 {
		tr.Outcome = OutcomeCrash
	}
	return tr
}

// drivePlanner runs a planner to completion against syntheticResult with
// the given number of in-flight slots, completing trials newest-first
// when lifo is set — the adversarial arrival order for a planner that
// must be order-independent. It returns the dispatched indices (in
// dispatch order) and the accumulated decision stream.
func drivePlanner(t *testing.T, p TrialPlanner, par int, lifo bool) ([]int, []PlannerDecision) {
	t.Helper()
	var dispatched []int
	var inflight []int
	var decisions []PlannerDecision
	decisions = append(decisions, p.TakeDecisions()...)
	for step := 0; ; step++ {
		if step > 100000 {
			t.Fatal("planner did not terminate")
		}
		state := PlanWait
		for len(inflight) < par {
			i, st := p.Next()
			state = st
			if st != PlanDispatch {
				break
			}
			dispatched = append(dispatched, i)
			inflight = append(inflight, i)
		}
		if len(inflight) == 0 {
			if state == PlanDone {
				return dispatched, decisions
			}
			if state == PlanWait {
				t.Fatal("planner waits with nothing in flight")
			}
		}
		k := 0
		if lifo {
			k = len(inflight) - 1
		}
		i := inflight[k]
		inflight = append(inflight[:k], inflight[k+1:]...)
		p.Observe(syntheticResult(i))
		decisions = append(decisions, p.TakeDecisions()...)
	}
}

func TestFixedPlannerSequence(t *testing.T) {
	p := NewFixedPlanner()
	resumed := map[int]TrialResult{3: syntheticResult(3), 5: syntheticResult(5)}
	if err := p.Start(2, 7, 10, resumed); err != nil {
		t.Fatal(err)
	}
	if total, final := p.Budget(); total != 5 || !final {
		t.Errorf("Budget = (%d, %v), want (5, true)", total, final)
	}
	var got []int
	for {
		i, st := p.Next()
		if st == PlanDone {
			break
		}
		if st != PlanDispatch {
			t.Fatalf("fixed planner returned %v", st)
		}
		got = append(got, i)
	}
	if want := []int{2, 4, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch sequence %v, want %v", got, want)
	}
	if d := p.TakeDecisions(); d != nil {
		t.Errorf("fixed planner produced decisions %v", d)
	}
}

// TestAdaptivePlannerOrderIndependent: the dispatched index set and the
// decision stream are identical at parallelism 1 (in-order completion)
// and parallelism 4 (newest-first completion).
func TestAdaptivePlannerOrderIndependent(t *testing.T) {
	run := func(par int, lifo bool) ([]int, []PlannerDecision) {
		p := NewAdaptivePlanner(testRule(0.12, 10, 300))
		if err := p.Start(0, 300, 300, nil); err != nil {
			t.Fatal(err)
		}
		return drivePlanner(t, p, par, lifo)
	}
	d1, dec1 := run(1, false)
	d4, dec4 := run(4, true)
	sort.Ints(d1)
	sort.Ints(d4)
	if !reflect.DeepEqual(d1, d4) {
		t.Errorf("dispatched sets differ: %d trials vs %d trials", len(d1), len(d4))
	}
	if !reflect.DeepEqual(dec1, dec4) {
		t.Errorf("decision streams differ:\npar 1: %+v\npar 4: %+v", dec1, dec4)
	}
	if len(dec1) == 0 || !dec1[len(dec1)-1].Stop {
		t.Fatalf("final decision is not a stop: %+v", dec1)
	}
	if len(d1) != dec1[len(dec1)-1].Boundary {
		t.Errorf("dispatched %d trials, stop boundary %d", len(d1), dec1[len(dec1)-1].Boundary)
	}
}

// TestAdaptivePlannerGuardRails: a target wider than any first verdict
// stops at MinTrials; an unreachable target exhausts MaxTrials.
func TestAdaptivePlannerGuardRails(t *testing.T) {
	loose := NewAdaptivePlanner(testRule(0.9, 20, 300))
	if err := loose.Start(0, 300, 300, nil); err != nil {
		t.Fatal(err)
	}
	dispatched, decisions := drivePlanner(t, loose, 3, false)
	if len(dispatched) != 20 {
		t.Errorf("loose target ran %d trials, want the 20-trial minimum", len(dispatched))
	}
	if len(decisions) != 1 || !decisions[0].Stop || decisions[0].Exhausted {
		t.Errorf("loose-target decisions = %+v", decisions)
	}
	if total, final := loose.Budget(); total != 20 || !final {
		t.Errorf("Budget = (%d, %v), want (20, true)", total, final)
	}

	tight := NewAdaptivePlanner(testRule(0.0001, 10, 120))
	if err := tight.Start(0, 120, 120, nil); err != nil {
		t.Fatal(err)
	}
	dispatched, decisions = drivePlanner(t, tight, 3, false)
	if len(dispatched) != 120 {
		t.Errorf("unreachable target ran %d trials, want the whole 120-trial budget", len(dispatched))
	}
	last := decisions[len(decisions)-1]
	if !last.Stop || !last.Exhausted || last.Boundary != 120 {
		t.Errorf("final decision = %+v, want an exhausted stop at 120", last)
	}
}

// TestAdaptivePlannerRejectsShards: an adaptive plan over a strict
// sub-range must fail at Start, and RunContext must reject the
// combination before doing any work.
func TestAdaptivePlannerRejectsShards(t *testing.T) {
	p := NewAdaptivePlanner(testRule(0.05, 10, 100))
	if err := p.Start(0, 50, 100, nil); err == nil {
		t.Error("Start accepted shard [0,50) of 100")
	}
	if err := p.Start(50, 100, 100, nil); err == nil {
		t.Error("Start accepted shard [50,100) of 100")
	}
	// The whole index space as a 1-shard spec is fine.
	if err := p.Start(0, 100, 100, nil); err != nil {
		t.Errorf("Start rejected the whole index space: %v", err)
	}

	_, err := Run(CampaignConfig{
		Builder: wsBuilder(t, 2),
		Spec:    faults.SingleBitSoft,
		Trials:  40,
		Seed:    7,
		Planner: NewAdaptivePlanner(testRule(0.05, 10, 40)),
		Shard:   &ShardSpec{Index: 0, Count: 2},
	})
	if err == nil {
		t.Fatal("Run accepted a sharded adaptive campaign")
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

// TestAdaptiveCampaignJournalsDecisions: an adaptive campaign journals
// its decision stream; trial readers skip it, decision readers recover
// it, and a resumed run replays rather than re-runs.
func TestAdaptiveCampaignJournalsDecisions(t *testing.T) {
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
	for i := range trials {
		if i < 0 {
			t.Errorf("trial reader surfaced planner sentinel index %d", i)
		}
	}
	decisions, err := ReadJournalDecisions(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) == 0 {
		t.Fatal("no planner decisions journaled")
	}
	last := decisions[len(decisions)-1]
	if !last.Stop || last.Boundary != res.Planned {
		t.Errorf("journaled stop %+v does not match Planned %d", last, res.Planned)
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
