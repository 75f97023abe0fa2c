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
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/faults"
	"hrmsim/internal/obsv"
	"hrmsim/internal/simmem"
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

// hangApp is a tiny deterministic app whose hanging variant blocks in
// Serve until released — the "pathological path" the wall-clock watchdog
// exists for.
type hangApp struct {
	as      *simmem.AddressSpace
	base    simmem.Addr
	hang    bool
	release <-chan struct{}
}

func (a *hangApp) Name() string                { return "hang" }
func (a *hangApp) Space() *simmem.AddressSpace { return a.as }
func (a *hangApp) NumRequests() int            { return 8 }
func (a *hangApp) Serve(i int) (apps.Response, error) {
	if a.hang {
		<-a.release
		return apps.Response{}, apps.Assertf("hung request released")
	}
	a.as.Clock().Advance(time.Second)
	d := apps.NewDigest()
	for k := 0; k < 4; k++ {
		v, err := a.as.LoadU64(a.base + simmem.Addr(8*((i+k)%16)))
		if err != nil {
			return apps.Response{}, err
		}
		d.AddU64(v)
	}
	return d.Response(), nil
}

// hangBuilder hangs the instance of one specific Build call (1-based),
// counted atomically because watchdog-abandoned goroutines may overlap
// the next build.
type hangBuilder struct {
	hangBuild int64
	builds    atomic.Int64
	release   chan struct{}
}

func (b *hangBuilder) AppName() string { return "hang" }
func (b *hangBuilder) Build() (apps.App, error) {
	n := b.builds.Add(1)
	as, err := simmem.New(simmem.Config{PageSize: 64})
	if err != nil {
		return nil, err
	}
	r, err := as.AddRegion(simmem.RegionSpec{Name: "data", Kind: simmem.RegionHeap, Size: 128})
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 128)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if err := as.WriteRaw(r.Base(), buf); err != nil {
		return nil, err
	}
	// The 11 words the eight requests load: every byte a trial can draw
	// is read, so no trial is decided without being served (decide.go)
	// and the hung instance's trial really hangs.
	r.SetUsed(88)
	return &hangApp{as: as, base: r.Base(), hang: n == b.hangBuild, release: b.release}, nil
}

// TestWatchdogDeadlineAbortsHungTrial: a deliberately hung application
// must not wedge the campaign — the trial is recorded as aborted
// (reason "deadline") and every other trial completes normally.
func TestWatchdogDeadlineAbortsHungTrial(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	// Build 1 is the golden run below and build 2 the campaign's first
	// session, which serves the fault-free pass. The build-per-trial
	// reference rebuilds on every Reset: build 3 is the Reset ending that
	// pass, and from there one per trial at parallelism 1, so hanging
	// build 5 hangs exactly trial 1.
	b := buildPerTrial{&hangBuilder{hangBuild: 5, release: release}}
	golden, err := GoldenRun(b)
	if err != nil {
		t.Fatal(err)
	}
	reg := obsv.NewRegistry()
	done := make(chan struct{})
	var res *CampaignResult
	go func() {
		defer close(done)
		res, err = Run(CampaignConfig{
			Builder:     b,
			Spec:        faults.SingleBitSoft,
			Trials:      5,
			Seed:        2,
			Parallelism: 1,
			Golden:      golden,
			RunOptions:  RunOptions{Metrics: reg, TrialTimeout: 50 * time.Millisecond},
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign wedged despite the watchdog")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 5 {
		t.Fatalf("got %d trials, want 5", len(res.Trials))
	}
	for _, tr := range res.Trials {
		if tr.Index == 1 {
			if tr.Disposition != DispositionAborted || tr.AbortReason != AbortReasonDeadline {
				t.Errorf("trial 1: disposition %v reason %q, want aborted/deadline",
					tr.Disposition, tr.AbortReason)
			}
			if !strings.Contains(tr.AbortDetail, "deadline") {
				t.Errorf("trial 1 detail = %q, want a deadline mention", tr.AbortDetail)
			}
			continue
		}
		if tr.Disposition != DispositionCompleted {
			t.Errorf("trial %d: disposition %v, want completed", tr.Index, tr.Disposition)
		}
	}
	if got := res.Completed(); got != 4 {
		t.Errorf("Completed() = %d, want 4", got)
	}
	if got := res.AbortedCount(); got != 1 {
		t.Errorf("AbortedCount() = %d, want 1", got)
	}
	// The abandoned trial shows up under aborted{deadline} and in no
	// completed-trial metric.
	snap := reg.Snapshot()
	if got := snap.Counters[`campaign_trials_aborted_total{reason="deadline"}`]; got != 1 {
		t.Errorf("aborted{deadline} counter = %d, want 1", got)
	}
	checkMetricsMatchTrials(t, snap, res)
}

// TestOpBudgetWatchdog: a tiny virtual-operation budget aborts trials
// deterministically (same dispositions on every run, and on the
// build-per-trial reference), and a budget that never fires leaves the campaign bit-identical to an
// unbudgeted one.
func TestOpBudgetWatchdog(t *testing.T) {
	b := wsBuilder(t, 13)
	golden, err := GoldenRun(b)
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(budget int64, b apps.Builder, par int) *CampaignResult {
		t.Helper()
		res, err := Run(CampaignConfig{
			Builder: b, Spec: faults.SingleBitSoft,
			Trials: 20, Seed: 8, Parallelism: par, Golden: golden,
			RunOptions: RunOptions{TrialOpBudget: budget},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// A budget far above any trial's operation count never perturbs
	// the taxonomy.
	unbudgeted := runWith(0, b, 1)
	huge := runWith(1<<40, b, 1)
	if !reflect.DeepEqual(unbudgeted.Trials, huge.Trials) {
		t.Fatal("a never-exceeded op budget changed trial results")
	}

	// A tiny budget aborts every trial (the workload performs far more
	// than 25 accesses), identically across runs, the build-per-trial
	// reference, and parallelism.
	small := runWith(25, b, 1)
	if small.AbortedCount() == 0 {
		t.Fatal("tiny op budget aborted nothing")
	}
	for _, tr := range small.Trials {
		if tr.Disposition == DispositionAborted && tr.AbortReason != AbortReasonOpBudget {
			t.Errorf("trial %d abort reason %q, want %q", tr.Index, tr.AbortReason, AbortReasonOpBudget)
		}
	}
	for _, variant := range []struct {
		name string
		res  *CampaignResult
	}{
		{"rerun", runWith(25, b, 1)},
		{"build-per-trial", runWith(25, buildPerTrial{b}, 1)},
		{"parallel", runWith(25, b, 4)},
	} {
		if !reflect.DeepEqual(small.Trials, variant.res.Trials) {
			t.Errorf("op-budget aborts not deterministic across %s", variant.name)
		}
	}
}

// flakyBuilder fails specific Build calls (1-based) to exercise the
// retry policy.
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

// TestRetryRecoversTransientFailures: transient build failures are
// retried with backoff and the campaign's results are bit-identical to
// an unperturbed run.
func TestRetryRecoversTransientFailures(t *testing.T) {
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
	// rebuilds on every Reset). Builds 3 and 4 fail: trial 0's restore,
	// then its retry's fresh session. The default retry budget of 2
	// absorbs both, at a backoff of 5 ms + 10 ms.
	flaky := &flakyBuilder{Builder: inner, failBuilds: map[int64]bool{3: true, 4: true}}
	reg := obsv.NewRegistry()
	res, err := Run(CampaignConfig{
		Builder: buildPerTrial{flaky}, Spec: faults.SingleBitSoft,
		Trials: 6, Seed: 4, Parallelism: 1, Golden: golden,
		RunOptions: RunOptions{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean.Trials, res.Trials) {
		t.Fatal("retried campaign diverged from the unperturbed run")
	}
	if got := reg.Snapshot().Counters["campaign_trials_retried_total"]; got != 2 {
		t.Errorf("campaign_trials_retried_total = %d, want 2", got)
	}
}

// TestRetryExhaustionAbortsTrial: a permanently failing worker aborts
// the trial (reason "worker_error") without failing the campaign.
func TestRetryExhaustionAbortsTrial(t *testing.T) {
	inner := kvBuilder(t, 5)
	golden, err := GoldenRun(inner)
	if err != nil {
		t.Fatal(err)
	}
	// Every campaign build fails (the golden run above used the inner
	// builder directly).
	alwaysFail := &flakyBuilder{Builder: inner, failBuilds: map[int64]bool{}}
	for i := int64(1); i <= 64; i++ {
		alwaysFail.failBuilds[i] = true
	}
	reg := obsv.NewRegistry()
	res, err := Run(CampaignConfig{
		Builder: buildPerTrial{alwaysFail}, Spec: faults.SingleBitSoft,
		Trials: 3, Seed: 4, Parallelism: 1, Golden: golden,
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
	// Each of the 3 trials is retried DefaultTrialRetries times.
	if got := snap.Counters["campaign_trials_retried_total"]; got != 2*3 {
		t.Errorf("retried = %d, want 2×3 (DefaultTrialRetries per trial)", got)
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
