package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"hrmsim/internal/apps"
	"hrmsim/internal/faults"
	"hrmsim/internal/obsv"
)

// TestCancellationDrainsAndReturnsPartial: cancelling mid-campaign stops
// dispatching, drains in-flight trials, and returns the finished prefix
// with Interrupted set — no error, no lost trials.
func TestCancellationDrainsAndReturnsPartial(t *testing.T) {
	b := kvBuilder(t, 11)
	golden, err := GoldenRun(b)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const trials = 60
	res, err := RunContext(ctx, CampaignConfig{
		Builder:     b,
		Spec:        faults.SingleBitSoft,
		Trials:      trials,
		Seed:        3,
		Parallelism: 4,
		Golden:      golden,
		// Progress calls are serialized, so this cancels exactly once
		// ten trials have finished.
		RunOptions: RunOptions{Progress: func(p ShardProgress) {
			if p.Done == 10 {
				cancel()
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Error("Interrupted = false, want true")
	}
	if res.Requested != trials {
		t.Errorf("Requested = %d, want %d", res.Requested, trials)
	}
	if len(res.Trials) < 10 || len(res.Trials) >= trials {
		t.Fatalf("got %d trials, want a partial prefix in [10,%d)", len(res.Trials), trials)
	}
	// The partial results must be the same trials a full run produces.
	full, err := Run(CampaignConfig{
		Builder: b, Spec: faults.SingleBitSoft, Trials: trials, Seed: 3,
		Parallelism: 1, Golden: golden,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Trials {
		if !reflect.DeepEqual(tr, full.Trials[tr.Index]) {
			t.Fatalf("trial %d diverged from the uninterrupted run", tr.Index)
		}
	}
	sum := 0
	for _, o := range Outcomes() {
		sum += res.Count(o)
	}
	if sum != res.Completed() {
		t.Errorf("outcome counts sum to %d, want Completed() = %d", sum, res.Completed())
	}
}

// journalMetaFor builds the journal identity used by the in-package
// resilience tests.
func journalMetaFor(b apps.Builder, spec faults.Spec, trials int, seed int64) JournalMeta {
	return JournalMeta{
		App:    b.AppName(),
		Error:  spec.String(),
		Trials: trials,
		Seed:   seed,
	}
}

// TestInterruptedResumeEquivalence pins the tentpole guarantee: for all
// three applications at parallelism 1 and 4, a campaign that is
// interrupted (journaling as it goes) and then resumed from that journal
// produces bit-identical trials, outcome counts, and aggregates to an
// uninterrupted run.
func TestInterruptedResumeEquivalence(t *testing.T) {
	builders := map[string]func(*testing.T, int64) apps.Builder{
		"websearch": wsBuilder,
		"kvstore":   kvBuilder,
		"graphmine": gmBuilder,
	}
	const trials = 30
	const seed = 77
	spec := faults.SingleBitHard
	for appName, mk := range builders {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par%d", appName, par), func(t *testing.T) {
				t.Parallel()
				b := mk(t, 21)
				golden, err := GoldenRun(b)
				if err != nil {
					t.Fatal(err)
				}
				base, err := Run(CampaignConfig{
					Builder: b, Spec: spec, Trials: trials, Seed: seed,
					Parallelism: par, Golden: golden,
				})
				if err != nil {
					t.Fatal(err)
				}

				// Interrupted leg: journal every trial, cancel after 8.
				var buf bytes.Buffer
				j, err := NewJournal(&buf, journalMetaFor(b, spec, trials, seed))
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				partial, err := RunContext(ctx, CampaignConfig{
					Builder: b, Spec: spec, Trials: trials, Seed: seed,
					Parallelism: par, Golden: golden, Journal: j,
					RunOptions: RunOptions{Progress: func(p ShardProgress) {
						if p.Done == 8 {
							cancel()
						}
					}},
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				if len(partial.Trials) >= trials {
					t.Fatalf("interrupt raced: all %d trials ran", trials)
				}

				// Resume leg: replay the journal, run the rest.
				meta, recs, err := ReadJournal(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if err := meta.Matches(journalMetaFor(b, spec, trials, seed)); err != nil {
					t.Fatal(err)
				}
				if len(recs) != len(partial.Trials) {
					t.Fatalf("journal has %d records, interrupted run had %d trials",
						len(recs), len(partial.Trials))
				}
				resumed, err := Run(CampaignConfig{
					Builder: b, Spec: spec, Trials: trials, Seed: seed,
					Parallelism: par, Golden: golden, Resume: recs,
				})
				if err != nil {
					t.Fatal(err)
				}
				if resumed.Interrupted {
					t.Error("resumed run reported Interrupted")
				}
				if resumed.Resumed != len(recs) {
					t.Errorf("Resumed = %d, want %d", resumed.Resumed, len(recs))
				}

				// Bit-identical trials and aggregates.
				if !reflect.DeepEqual(base.Trials, resumed.Trials) {
					for i := range base.Trials {
						if !reflect.DeepEqual(base.Trials[i], resumed.Trials[i]) {
							t.Fatalf("trial %d diverged:\nbase:    %+v\nresumed: %+v",
								i, base.Trials[i], resumed.Trials[i])
						}
					}
					t.Fatal("trials diverged")
				}
				for _, o := range Outcomes() {
					if base.Count(o) != resumed.Count(o) {
						t.Errorf("outcome %v: base %d, resumed %d", o, base.Count(o), resumed.Count(o))
					}
				}
				bc, err1 := base.CrashProbability(0.90)
				rc, err2 := resumed.CrashProbability(0.90)
				if err1 != nil || err2 != nil || bc != rc {
					t.Errorf("crash probability diverged: %+v vs %+v (%v, %v)", bc, rc, err1, err2)
				}
				bm, bx := base.IncorrectPerBillion()
				rm, rx := resumed.IncorrectPerBillion()
				if bm != rm || bx != rx {
					t.Errorf("incorrect-per-billion diverged: (%g,%g) vs (%g,%g)", bm, bx, rm, rx)
				}
			})
		}
	}
}

// TestResumedTrialsDoNotInflateRate: a run that resumes most of its
// campaign reports the rate of the trials it ran itself — resumed ones
// cost this process no time.
func TestResumedTrialsDoNotInflateRate(t *testing.T) {
	b := kvBuilder(t, 11)
	golden, err := GoldenRun(b)
	if err != nil {
		t.Fatal(err)
	}
	const trials, resumed = 40, 36
	cfg := CampaignConfig{
		Builder: b, Spec: faults.SingleBitSoft, Trials: trials, Seed: 3,
		Parallelism: 1, Golden: golden,
	}
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Resume = make(map[int]TrialResult, resumed)
	for _, tr := range full.Trials {
		if tr.Index < resumed {
			cfg.Resume[tr.Index] = tr
		}
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }

	var records []ShardProgress
	cfg.Progress = func(p ShardProgress) { records = append(records, p) }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	// The initial record, one per trial run here, and the final record.
	if len(records) != 1+trials-resumed+1 {
		t.Fatalf("got %d progress records, want %d", len(records), 1+trials-resumed+1)
	}
	for _, p := range records {
		if want := float64(p.Done-resumed) / p.ElapsedSeconds; !near(p.TrialsPerSec, want) {
			t.Errorf("done %d (running %v): TrialsPerSec = %g, want %g (the %d trials run here)",
				p.Done, p.Running, p.TrialsPerSec, want, p.Done-resumed)
		}
	}
	if final := records[len(records)-1]; final.Running || final.Done != trials || final.Resumed != resumed {
		t.Fatalf("final record = %+v, want a finished %d-trial run with %d resumed", final, trials, resumed)
	}
}

// flakyBuilder fails specific Build calls (1-based), standing in for a
// worker whose infrastructure fails.
type flakyBuilder struct {
	apps.Builder
	failBuilds map[int64]bool
	builds     atomic.Int64
}

func (b *flakyBuilder) Build() (apps.App, error) {
	n := b.builds.Add(1)
	if b.failBuilds[n] {
		return nil, fmt.Errorf("transient build failure %d", n)
	}
	return b.Builder.Build()
}

// TestFailedTrialAbortsOnce: a trial whose restore fails is aborted
// (reason "worker_error") on its one attempt, and its worker rebuilds
// the session for the next trial, whose results are bit-identical to an
// unperturbed run's.
func TestFailedTrialAbortsOnce(t *testing.T) {
	inner := kvBuilder(t, 5)
	golden, err := GoldenRun(inner)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(CampaignConfig{
		Builder: inner, Spec: faults.SingleBitSoft,
		Trials: 6, Seed: 4, Parallelism: 1, Golden: golden,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Build 1 is the campaign's first session, which serves the fault-free
	// pass, and build 2 the Reset ending it (the build-per-trial reference
	// rebuilds on every Reset). Build 3, trial 0's restore, fails. Trial 1
	// then builds a fresh session (build 4) and restores it (build 5), and
	// trials 2..5 restore once each: 9 builds, none of them a second
	// attempt at trial 0.
	flaky := &flakyBuilder{Builder: inner, failBuilds: map[int64]bool{3: true}}
	reg := obsv.NewRegistry()
	res, err := Run(CampaignConfig{
		Builder: buildPerTrial{flaky}, Spec: faults.SingleBitSoft,
		Trials: 6, Seed: 4, Parallelism: 1, Golden: golden,
		RunOptions: RunOptions{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr := res.Trials[0]; tr.Disposition != DispositionAborted || tr.AbortReason != AbortReasonWorkerError ||
		!strings.Contains(tr.AbortDetail, "transient build failure 3") {
		t.Errorf("trial 0 = %+v, want aborted/worker_error naming build 3", tr)
	}
	if !reflect.DeepEqual(clean.Trials[1:], res.Trials[1:]) {
		t.Error("the trials after the failed one diverged from the unperturbed run")
	}
	if got := flaky.builds.Load(); got != 9 {
		t.Errorf("%d builds, want 9", got)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`campaign_trials_aborted_total{reason="worker_error"}`]; got != 1 {
		t.Errorf("aborted{worker_error} = %d, want 1", got)
	}
	checkMetricsMatchTrials(t, snap, res)
}

// TestFailingWorkerAbortsEveryTrial: once the fault-free pass is done, a
// builder that fails every build aborts every trial (reason
// "worker_error") on its one attempt without failing the campaign.
func TestFailingWorkerAbortsEveryTrial(t *testing.T) {
	inner := kvBuilder(t, 5)
	// Builds 1 and 2 are the pass's instance and the Reset ending the
	// pass (the build-per-trial reference rebuilds on every Reset); every
	// later build fails, starting with trial 0's restore.
	failing := &flakyBuilder{Builder: inner, failBuilds: map[int64]bool{}}
	for i := int64(3); i <= 64; i++ {
		failing.failBuilds[i] = true
	}
	reg := obsv.NewRegistry()
	res, err := Run(CampaignConfig{
		Builder: buildPerTrial{failing}, Spec: faults.SingleBitSoft,
		Trials: 3, Seed: 4, Parallelism: 1,
		RunOptions: RunOptions{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Completed(); got != 0 {
		t.Errorf("Completed() = %d, want 0", got)
	}
	for _, tr := range res.Trials {
		if tr.Disposition != DispositionAborted || tr.AbortReason != AbortReasonWorkerError {
			t.Errorf("trial %d: disposition %v reason %q, want aborted/worker_error",
				tr.Index, tr.Disposition, tr.AbortReason)
		}
		if !strings.Contains(tr.AbortDetail, "transient build failure") {
			t.Errorf("trial %d detail %q lacks the underlying error", tr.Index, tr.AbortDetail)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`campaign_trials_aborted_total{reason="worker_error"}`]; got != 3 {
		t.Errorf("aborted{worker_error} = %d, want 3", got)
	}
	// The pass's two builds, then one per trial: trial 0's restore, then
	// a fresh session for each later trial.
	if got := failing.builds.Load(); got != 2+3 {
		t.Errorf("%d builds, want 2+3 (one attempt per trial)", got)
	}
}

// TestCrashStackCaptured: a panic inside application code surfaces a
// sanitized, deterministic stack on the trial result.
func TestCrashStackCaptured(t *testing.T) {
	stack := sanitizeStack([]byte(
		"goroutine 17 [running]:\n" +
			"runtime/debug.Stack()\n" +
			"\t/usr/local/go/src/runtime/debug/stack.go:26 +0x64\n" +
			"hrmsim/internal/core.serveGuarded.func1()\n" +
			"\t/root/repo/internal/core/campaign.go:610 +0x34\n" +
			"panic({0x104b8c660?, 0x104c8a980?})\n" +
			"\t/usr/local/go/src/runtime/panic.go:792 +0x124\n" +
			"hrmsim/internal/apps/websearch.(*App).Serve(0x14000158000, 0x12)\n" +
			"\t/root/repo/internal/apps/websearch/search.go:210 +0x1e4\n" +
			"hrmsim/internal/core.serveGuarded({0x104cd3e38?, 0x14000158000?}, 0x12)\n" +
			"\t/root/repo/internal/core/campaign.go:605 +0x5c\n" +
			"hrmsim/internal/core.injectAndServe(...)\n" +
			"\t/root/repo/internal/core/campaign.go:520\n"))
	want := "runtime/debug.Stack\n" +
		"\t/usr/local/go/src/runtime/debug/stack.go:26\n" +
		"hrmsim/internal/core.serveGuarded.func1\n" +
		"\t/root/repo/internal/core/campaign.go:610\n" +
		"panic\n" +
		"\t/usr/local/go/src/runtime/panic.go:792\n" +
		"hrmsim/internal/apps/websearch.(*App).Serve\n" +
		"\t/root/repo/internal/apps/websearch/search.go:210"
	if stack != want {
		t.Errorf("sanitizeStack:\ngot:\n%s\nwant:\n%s", stack, want)
	}
}

// TestProgressRecordSequence pins the Progress hook's contract: an
// initial record before the first trial, one record per finished trial,
// and a final record (Running false) that nothing follows — for a fixed
// plan, an adaptive plan, a run with only resumed trials and a cancelled
// run.
func TestProgressRecordSequence(t *testing.T) {
	// record runs cfg, keeping every record; cancelAt, if positive,
	// cancels the run once that many trials are done.
	record := func(t *testing.T, cfg CampaignConfig, cancelAt int) (*CampaignResult, []ShardProgress) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var got []ShardProgress
		cfg.Progress = func(p ShardProgress) {
			got = append(got, p)
			if cancelAt > 0 && p.Done == cancelAt {
				cancel()
			}
		}
		res, err := RunContext(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < 2 {
			t.Fatalf("got %d records, want at least an initial and a final one", len(got))
		}
		for i, p := range got {
			if p.Running != (i < len(got)-1) {
				t.Fatalf("record %d of %d has Running %v: only the last one is final", i, len(got), p.Running)
			}
			if p.TrialsPerSec < 0 || p.EtaSeconds < 0 || p.ElapsedSeconds < 0 {
				t.Errorf("record %d has negative rate fields: %+v", i, p)
			}
			// Outcomes is a fresh map per record: a kept record still
			// sums to its own Completed.
			sum := 0
			for _, n := range p.Outcomes {
				sum += n
			}
			if p.Outcomes == nil || sum != p.Completed {
				t.Errorf("record %d outcomes %v sum to %d, want Completed %d", i, p.Outcomes, sum, p.Completed)
			}
		}
		final := got[len(got)-1]
		if final.EtaSeconds != 0 {
			t.Errorf("final EtaSeconds = %g, want 0", final.EtaSeconds)
		}
		if final.Completed != res.Completed() || final.Aborted != res.AbortedCount() || final.Done != len(res.Trials) {
			t.Errorf("final record %+v, want done %d completed %d aborted %d",
				final, len(res.Trials), res.Completed(), res.AbortedCount())
		}
		for _, o := range Outcomes() {
			if final.Outcomes[o.String()] != res.Count(o) {
				t.Errorf("final outcome %s = %d, want %d", o, final.Outcomes[o.String()], res.Count(o))
			}
		}
		return res, got
	}
	base := CampaignConfig{Builder: kvBuilder(t, 13), Spec: faults.SingleBitSoft, Trials: 24, Seed: 5, Parallelism: 4}

	t.Run("fixed", func(t *testing.T) {
		res, got := record(t, base, 0)
		if len(got) != 24+2 {
			t.Fatalf("got %d records, want initial + 24 + final", len(got))
		}
		for i, p := range got {
			want := min(i, 24)
			if p.Done != want || p.Total != 24 || p.TrialLo != 0 || p.TrialHi != 24 {
				t.Errorf("record %d: done %d/%d range [%d,%d), want %d/24 over [0,24)",
					i, p.Done, p.Total, p.TrialLo, p.TrialHi, want)
			}
			if p.Adaptive || p.Interrupted {
				t.Errorf("record %d of a fixed, uncancelled run: %+v", i, p)
			}
		}
		if res.Interrupted {
			t.Error("the run was interrupted")
		}
	})
	t.Run("adaptive", func(t *testing.T) {
		cfg := base
		cfg.Trials = 120
		cfg.Planner = NewAdaptivePlanner(testRule(0.15, 10, 120))
		res, got := record(t, cfg, 0)
		if !res.PlanFinal || res.Planned >= cfg.Trials {
			t.Fatalf("plan final %v at %d of %d: the rule must stop early for this case", res.PlanFinal, res.Planned, cfg.Trials)
		}
		final := got[len(got)-1]
		if !final.Adaptive || !final.PlanFinal || final.PlannedTrials != res.Planned || final.Total != res.Planned ||
			final.TrialsSaved != cfg.Trials-res.Planned {
			t.Errorf("final record %+v, want the final plan of %d trials", final, res.Planned)
		}
		for i, p := range got[:len(got)-1] {
			if !p.Adaptive || p.PlanFinal || p.PlannedTrials != p.Total || p.Done > p.Total {
				t.Errorf("record %d of the open plan: %+v", i, p)
			}
		}
	})
	t.Run("resumed-only", func(t *testing.T) {
		full, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Resume = make(map[int]TrialResult, len(full.Trials))
		for _, tr := range full.Trials {
			cfg.Resume[tr.Index] = tr
		}
		_, got := record(t, cfg, 0)
		if len(got) != 2 {
			t.Fatalf("got %d records, want the initial and the final one", len(got))
		}
		for i, p := range got {
			if p.Done != 24 || p.Resumed != 24 || p.TrialsPerSec != 0 {
				t.Errorf("record %d = %+v, want 24 done, all resumed, no rate", i, p)
			}
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		res, got := record(t, base, 6)
		if !res.Interrupted || !got[len(got)-1].Interrupted {
			t.Errorf("result interrupted %v, final record %+v: want both interrupted", res.Interrupted, got[len(got)-1])
		}
		for i, p := range got[:len(got)-1] {
			if p.Interrupted {
				t.Errorf("running record %d says interrupted", i)
			}
		}
	})
}

func TestSupervisorStatusShardedAndResumed(t *testing.T) {
	spec := ShardSpec{Index: 1, Count: 2}
	resume := map[int]TrialResult{
		// Trial 10 falls inside shard 1's range [10, 20) of 20 trials.
		10: {Disposition: DispositionCompleted, Outcome: OutcomeMaskedLatent},
		// Trial 0 belongs to shard 0 and must be ignored.
		0: {Disposition: DispositionCompleted, Outcome: OutcomeCrash},
	}
	var got []ShardProgress
	res, err := Run(CampaignConfig{
		Builder:    kvBuilder(t, 5),
		Spec:       faults.SingleBitSoft,
		Trials:     20,
		Seed:       11,
		Shard:      &spec,
		Resume:     resume,
		RunOptions: RunOptions{Progress: func(p ShardProgress) { got = append(got, p) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	first, last := got[0], got[len(got)-1]
	if first.TrialLo != 10 || first.TrialHi != 20 || first.Total != 10 {
		t.Errorf("initial record = %+v, want shard 1/2's range [10,20)", first)
	}
	if first.Done != 1 || first.Resumed != 1 || first.Outcomes["masked-latent"] != 1 {
		t.Errorf("initial record = %+v, want one resumed masked-latent trial", first)
	}
	if last.Done != 10 || last.Total != 10 || last.Completed != res.Completed() {
		t.Errorf("final record = %+v, want 10/10 done, completed=%d", last, res.Completed())
	}
	if last.Outcomes["crash"] != res.Count(OutcomeCrash) {
		t.Errorf("final crash count = %d, want %d", last.Outcomes["crash"], res.Count(OutcomeCrash))
	}
}
