package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/apps/kvstore"
	"hrmsim/internal/apps/websearch"
	"hrmsim/internal/ecc"
	"hrmsim/internal/faults"
	"hrmsim/internal/inject"
	"hrmsim/internal/monitor"
	"hrmsim/internal/obsv"
	"hrmsim/internal/simmem"
)

func wsBuilder(t *testing.T, seed int64) apps.Builder {
	t.Helper()
	cfg := websearch.DefaultConfig(seed)
	cfg.Docs = 256
	cfg.Vocab = 128
	cfg.MinTerms = 4
	cfg.MaxTerms = 12
	cfg.Queries = 40
	cfg.CacheSlots = 32
	b, err := websearch.NewBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func kvBuilder(t *testing.T, seed int64) apps.Builder {
	t.Helper()
	cfg := kvstore.DefaultConfig(seed)
	cfg.Keys = 128
	cfg.Ops = 200
	b, err := kvstore.NewBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenRun(t *testing.T) {
	g, err := GoldenRun(wsBuilder(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 40 {
		t.Fatalf("golden length = %d, want 40", len(g))
	}
}

func TestRunCampaignBasic(t *testing.T) {
	res, err := Run(CampaignConfig{
		Builder: wsBuilder(t, 2),
		Spec:    faults.SingleBitSoft,
		Trials:  60,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 60 {
		t.Fatalf("got %d trials", len(res.Trials))
	}
	if res.App != "websearch" {
		t.Errorf("app = %q", res.App)
	}
	// Outcome counts partition the trials.
	total := 0
	for _, o := range []Outcome{OutcomeCrash, OutcomeIncorrect, OutcomeMaskedOverwrite,
		OutcomeMaskedLogic, OutcomeMaskedLatent} {
		total += res.Count(o)
	}
	if total != 60 {
		t.Errorf("outcome counts sum to %d, want 60", total)
	}
	p, err := res.CrashProbability(0.90)
	if err != nil {
		t.Fatal(err)
	}
	if p.Trials != 60 {
		t.Errorf("crash proportion trials = %d", p.Trials)
	}
	tol, err := res.ToleratedProbability(0.90)
	if err != nil {
		t.Fatal(err)
	}
	if p.P+tol.P > 1.0001 {
		t.Error("crash + tolerated exceed 1")
	}
}

func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) *CampaignResult {
		res, err := Run(CampaignConfig{
			Builder:     wsBuilder(t, 3),
			Spec:        faults.SingleBitHard,
			Trials:      30,
			Seed:        99,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	for i := range a.Trials {
		if a.Trials[i].Outcome != b.Trials[i].Outcome ||
			a.Trials[i].Region != b.Trials[i].Region ||
			a.Trials[i].Incorrect != b.Trials[i].Incorrect {
			t.Fatalf("trial %d differs between parallelism 1 and 4:\n%+v\n%+v",
				i, a.Trials[i], b.Trials[i])
		}
	}
}

func TestCampaignRegionFilter(t *testing.T) {
	res, err := Run(CampaignConfig{
		Builder: wsBuilder(t, 4),
		Spec:    faults.SingleBitSoft,
		Trials:  25,
		Seed:    5,
		Filter:  func(r *simmem.Region) bool { return r.Kind() == simmem.RegionHeap },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Trials {
		if tr.Kind != simmem.RegionHeap {
			t.Fatalf("trial %d injected into %v", i, tr.Kind)
		}
	}
}

// TestCampaignGoldenReuse: a supplied golden run that equals the one the
// campaign records is accepted, and the campaign is the one it runs
// without it.
func TestCampaignGoldenReuse(t *testing.T) {
	b := wsBuilder(t, 6)
	golden, err := GoldenRun(b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{
		Builder: b,
		Spec:    faults.SingleBitSoft,
		Trials:  10,
		Seed:    1,
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Golden = golden
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Trials, want.Trials) {
		t.Error("a supplied golden run changed the trials")
	}
}

func TestCampaignWarmup(t *testing.T) {
	res, err := Run(CampaignConfig{
		Builder: kvBuilder(t, 7),
		Spec:    faults.SingleBitSoft,
		Trials:  10,
		Seed:    2,
		Warmup:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Trials {
		if tr.InjectedAt == 0 {
			t.Fatalf("trial %d injected at time zero despite warmup", i)
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	b := kvBuilder(t, 8)
	if _, err := Run(CampaignConfig{Spec: faults.SingleBitSoft, Trials: 1}); err == nil {
		t.Error("nil builder accepted")
	}
	if _, err := Run(CampaignConfig{Builder: b, Spec: faults.SingleBitSoft}); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := Run(CampaignConfig{Builder: b, Spec: faults.Spec{}, Trials: 1}); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := Run(CampaignConfig{Builder: b, Spec: faults.SingleBitSoft, Trials: 1, Warmup: -1}); err == nil {
		t.Error("negative warmup accepted")
	}
	if _, err := Run(CampaignConfig{Builder: b, Spec: faults.SingleBitSoft, Trials: 1, Warmup: 10000}); err == nil {
		t.Error("oversized warmup accepted")
	}
}

// TestPreparedRunRefusals: Prepared.Run refuses a campaign that is not of
// its build — another builder, even one of the same application, another
// warm-up, or a supplied golden run the pass did not record — naming what
// differs, and runs one that is.
func TestPreparedRunRefusals(t *testing.T) {
	b := kvBuilder(t, 8)
	p, err := Prepare(b, 10)
	if err != nil {
		t.Fatal(err)
	}
	golden := p.Golden()
	off := append([]uint64(nil), golden...)
	off[7] ^= 1
	base := CampaignConfig{Builder: b, Spec: faults.SingleBitSoft, Trials: 4, Warmup: 10}
	for _, tc := range []struct {
		name string
		edit func(*CampaignConfig)
		want string
	}{
		{"foreign-builder", func(c *CampaignConfig) { c.Builder = kvBuilder(t, 8) },
			"core: the campaign's kvstore builder is not the one the build was prepared from"},
		{"other-warmup", func(c *CampaignConfig) { c.Warmup = 11 },
			"core: campaign warmup 11, but the build was prepared at warmup 10"},
		{"mismatched-golden", func(c *CampaignConfig) { c.Golden = off },
			"core: the supplied golden run differs from the recorded one at request 7"},
		{"short-golden", func(c *CampaignConfig) { c.Golden = golden[:len(golden)-1] },
			fmt.Sprintf("core: the supplied golden run differs from the recorded one at request %d", len(golden)-1)},
	} {
		cfg := base
		tc.edit(&cfg)
		if _, err := p.Run(context.Background(), cfg); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	base.Golden = golden
	if res, err := p.Run(context.Background(), base); err != nil || res.Completed() != 4 {
		t.Fatalf("the prepared campaign: err = %v", err)
	}
}

// TestPreparedConcurrentRuns: campaigns run at once on one Prepared share
// its session pool with a loan that serves the whole window, and each
// still equals its stand-alone campaign; the loan serves the golden run.
func TestPreparedConcurrentRuns(t *testing.T) {
	b := kvBuilder(t, 9)
	p, err := Prepare(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	specs := []faults.Spec{faults.SingleBitSoft, faults.SingleBitHard, faults.DoubleBitHard}
	got := make([]*CampaignResult, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for k, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k], errs[k] = p.Run(context.Background(), CampaignConfig{Builder: b, Spec: spec, Trials: 16, Seed: 3, Parallelism: 2})
		}()
	}
	var loanErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		loanErr = p.WithSession(func(sess apps.SnapshotApp) error {
			for q, want := range p.Golden() {
				if resp, err := sess.Serve(q); err != nil || resp.Digest != want {
					return fmt.Errorf("request %d: digest %#x, error %v; golden %#x", q, resp.Digest, err, want)
				}
			}
			return nil
		})
	}()
	wg.Wait()
	if loanErr != nil {
		t.Fatal(loanErr)
	}
	for k, spec := range specs {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		want, err := Run(CampaignConfig{Builder: b, Spec: spec, Trials: 16, Seed: 3, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[k].Trials, want.Trials) {
			t.Errorf("%v: the concurrent cell diverged from its stand-alone campaign", spec)
		}
	}
}

// TestPreparedRecordMatchesFreshPass: the record a Prepared keeps equals
// the one a fresh build makes under New, every request served and Finish,
// and the Fig. 5b sample drawn on a lent session equals the one drawn on
// that fresh build, also after a hard-error cell has run on the Prepared.
// A lent session whose function fails is dropped.
func TestPreparedRecordMatchesFreshPass(t *testing.T) {
	cases := []struct {
		name, app string
		codec     simmem.Codec
	}{
		{"websearch", "websearch", nil},
		{"websearch-secded", "websearch", ecc.NewSECDED()},
		{"kvstore", "kvstore", nil},
		{"graphmine", "graphmine", nil},
	}
	const seed, watchpoints = 5, 300
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := decideBuilders[tc.app](t, tc.codec)
			p, err := Prepare(b, 0)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			as := fresh.Space()
			want := monitor.New(as)
			as.AddAccessObserver(want)
			wantSample := monitor.Sample(as, rand.New(rand.NewSource(seed)), watchpoints)
			for q := 0; q < fresh.NumRequests(); q++ {
				if _, err := fresh.Serve(q); err != nil {
					t.Fatalf("request %d: %v", q, err)
				}
			}
			want.Finish(as)
			if got := p.Profile(); got == nil || !reflect.DeepEqual(got, want) {
				t.Fatal("the prepared record differs from a fresh pass's")
			}

			lentSample := func() []simmem.Addr {
				var got []simmem.Addr
				if err := p.WithSession(func(sess apps.SnapshotApp) error {
					if now := sess.Space().Clock().Now(); now != want.Start {
						return fmt.Errorf("lent session's clock at %v, the window starts at %v", now, want.Start)
					}
					got = monitor.Sample(sess.Space(), rand.New(rand.NewSource(seed)), watchpoints)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				return got
			}
			if len(wantSample) == 0 || !reflect.DeepEqual(lentSample(), wantSample) {
				t.Fatal("the sample drawn on a lent session differs from a fresh build's")
			}
			cfg := CampaignConfig{Builder: b, Spec: faults.DoubleBitHard, Trials: 16, Seed: 3, Parallelism: 2}
			if _, err := p.Run(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(lentSample(), wantSample) {
				t.Fatal("after a hard-2bit cell, the sample drawn on a lent session differs from a fresh build's")
			}

			pooled := len(p.pool)
			boom := errors.New("boom")
			if err := p.WithSession(func(apps.SnapshotApp) error { return boom }); !errors.Is(err, boom) {
				t.Fatalf("WithSession returned %v, want the function's error", err)
			}
			if len(p.pool) != pooled-1 {
				t.Errorf("pool holds %d sessions after a failed loan, want %d", len(p.pool), pooled-1)
			}
		})
	}
}

func TestHardErrorsCrashMoreOrEqual(t *testing.T) {
	// Hard errors persist, so across identical trial counts they should
	// cause at least as many bad outcomes (crash+incorrect) as soft
	// errors in the read-mostly private region.
	b := wsBuilder(t, 9)
	golden, err := GoldenRun(b)
	if err != nil {
		t.Fatal(err)
	}
	filter := func(r *simmem.Region) bool { return r.Kind() == simmem.RegionPrivate }
	soft, err := Run(CampaignConfig{Builder: b, Spec: faults.SingleBitSoft, Trials: 80, Seed: 11, Filter: filter, Golden: golden})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := Run(CampaignConfig{Builder: b, Spec: faults.DoubleBitHard, Trials: 80, Seed: 11, Filter: filter, Golden: golden})
	if err != nil {
		t.Fatal(err)
	}
	badSoft := soft.Count(OutcomeCrash) + soft.Count(OutcomeIncorrect)
	badHard := hard.Count(OutcomeCrash) + hard.Count(OutcomeIncorrect)
	if badHard < badSoft {
		t.Errorf("2-bit hard errors caused fewer bad outcomes (%d) than 1-bit soft (%d)",
			badHard, badSoft)
	}
}

func TestIncorrectPerBillion(t *testing.T) {
	res := &CampaignResult{
		Trials: []TrialResult{
			{Requests: 100, Incorrect: 1},
			{Requests: 100, Incorrect: 0},
			{Requests: 0},
		},
		counts: map[Outcome]int{},
	}
	mean, max := res.IncorrectPerBillion()
	if mean != 1.0/200*1e9 {
		t.Errorf("mean = %g", mean)
	}
	if max != 1.0/100*1e9 {
		t.Errorf("max = %g", max)
	}
}

func TestTimesToEffectAndOutcomeStrings(t *testing.T) {
	res := &CampaignResult{
		Trials: []TrialResult{
			{Outcome: OutcomeCrash, InjectedAt: time.Minute, EffectAt: 3 * time.Minute},
			{Outcome: OutcomeIncorrect, InjectedAt: time.Minute, EffectAt: 11 * time.Minute},
			{Outcome: OutcomeMaskedLogic},
		},
		counts: map[Outcome]int{OutcomeCrash: 1, OutcomeIncorrect: 1, OutcomeMaskedLogic: 1},
	}
	crashTimes := res.TimesToEffect(OutcomeCrash)
	if len(crashTimes) != 1 || crashTimes[0] != 2 {
		t.Errorf("crash times = %v, want [2]", crashTimes)
	}
	if got := res.TimesToEffect(OutcomeMaskedLogic); len(got) != 0 {
		t.Errorf("masked times = %v", got)
	}

	for _, o := range Outcomes() {
		if o.String() == "" || strings.HasPrefix(o.String(), "outcome(") {
			t.Errorf("missing name for outcome %d", int(o))
		}
		if strings.Contains(o.MetricName(), "-") {
			t.Errorf("metric name %q not sanitized", o.MetricName())
		}
	}
	if !OutcomeMaskedOverwrite.Tolerated() || OutcomeCrash.Tolerated() || OutcomeIncorrect.Tolerated() {
		t.Error("Tolerated classification wrong")
	}
}

func TestCampaignSetsEndedAt(t *testing.T) {
	res, err := Run(CampaignConfig{
		Builder: wsBuilder(t, 12),
		Spec:    faults.SingleBitHard,
		Trials:  30,
		Seed:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Trials {
		if tr.EndedAt <= tr.InjectedAt {
			t.Fatalf("trial %d: EndedAt %v not after InjectedAt %v", i, tr.EndedAt, tr.InjectedAt)
		}
		if tr.EffectAt != 0 && tr.EndedAt < tr.EffectAt {
			t.Fatalf("trial %d: EndedAt %v before EffectAt %v", i, tr.EndedAt, tr.EffectAt)
		}
	}
}

func TestClassify(t *testing.T) {
	tests := []struct {
		crashed   bool
		incorrect int
		first     firstAccessKind
		want      Outcome
	}{
		{true, 0, firstLoad, OutcomeCrash},
		{true, 3, firstLoad, OutcomeCrash},
		{false, 2, firstLoad, OutcomeIncorrect},
		{false, 0, firstStore, OutcomeMaskedOverwrite},
		{false, 0, firstLoad, OutcomeMaskedLogic},
		{false, 0, firstNone, OutcomeMaskedLatent},
	}
	for i, tt := range tests {
		if got := classify(tt.crashed, tt.incorrect, tt.first); got != tt.want {
			t.Errorf("case %d: classify = %v, want %v", i, got, tt.want)
		}
	}
}

func TestAccessTracker(t *testing.T) {
	as, err := simmem.New(simmem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := newAccessTracker(as, []simmem.Addr{100, 200})
	tr.ObserveAccess(simmem.AccessEvent{Addr: 50, Len: 10, Kind: simmem.Load})
	if tr.first != firstNone {
		t.Error("non-covering access recorded")
	}
	tr.ObserveAccess(simmem.AccessEvent{Addr: 95, Len: 10, Kind: simmem.Store})
	if tr.first != firstStore {
		t.Error("covering store not recorded")
	}
	// First access is sticky.
	tr.ObserveAccess(simmem.AccessEvent{Addr: 200, Len: 1, Kind: simmem.Load})
	if tr.first != firstStore {
		t.Error("first access overwritten")
	}
}

func TestAccessTrackerLoadDoesNotAllocate(t *testing.T) {
	// Every simulated trial's hot path: a Load through the observer
	// fan-out with the classification accessTracker registered. It must
	// not allocate.
	as, err := simmem.New(simmem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := as.AddRegion(simmem.RegionSpec{Name: "heap", Kind: simmem.RegionHeap, Size: 4096})
	if err != nil {
		t.Fatal(err)
	}
	newAccessTracker(as, []simmem.Addr{r.Base() + 128})
	buf := make([]byte, 8)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := as.Load(r.Base()+64, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Load with an accessTracker allocates %.1f times per op, want 0", allocs)
	}
}

// countObserver counts the access events it is delivered.
type countObserver struct{ n int }

func (c *countObserver) ObserveAccess(simmem.AccessEvent) { c.n++ }

// TestAccessTrackerDetaches: the tracker unregisters itself on its first
// hit and not before, so a trial whose error is never referenced keeps it
// to the end; observers registered after it — the explain log among them
// — still get the hitting access and every later one; and in a campaign's
// trials a masked-by-overwrite or -logic trial ends with no observer on
// its session's space, a latent one with the tracker alone.
func TestAccessTrackerDetaches(t *testing.T) {
	newSpace := func() (*simmem.AddressSpace, simmem.Addr) {
		as, err := simmem.New(simmem.Config{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := as.AddRegion(simmem.RegionSpec{Name: "heap", Kind: simmem.RegionHeap, Size: 4096})
		if err != nil {
			t.Fatal(err)
		}
		return as, r.Base()
	}
	buf := make([]byte, 8)

	as, base := newSpace()
	target := base + 128
	tr := newAccessTracker(as, []simmem.Addr{target})
	for i := 0; i < 3; i++ {
		if err := as.Load(base+64, buf); err != nil {
			t.Fatal(err)
		}
	}
	if tr.first != firstNone || !as.Observed() {
		t.Fatalf("before a hit: first = %v, observed = %v; want none, true", tr.first, as.Observed())
	}
	if err := as.Store(target-4, buf); err != nil {
		t.Fatal(err)
	}
	if tr.first != firstStore || as.Observed() {
		t.Fatalf("after the hit: first = %v, observed = %v; want store, false", tr.first, as.Observed())
	}

	// Registered as runTrial registers them: the tracker, then the log.
	as, base = newSpace()
	target = base + 128
	tr = newAccessTracker(as, []simmem.Addr{target})
	log := &trialLog{Injection: inject.Injection{Targets: []inject.Target{{Addr: target}}}}
	as.AddAccessObserver(log)
	count := &countObserver{}
	as.AddAccessObserver(count)
	for _, addr := range []simmem.Addr{base, target, base + 64, target - 7, target} {
		if err := as.Load(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	if tr.first != firstLoad || len(log.Consumptions) != 3 || count.n != 5 {
		t.Fatalf("first = %v, log consumptions = %d, events after the tracker = %d; want load, 3, 5",
			tr.first, len(log.Consumptions), count.n)
	}

	b := wsBuilder(t, 3)
	p, err := Prepare(b, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Without the record every trial simulates, the never-referenced ones
	// (which the record decides) among them.
	p.profile = nil
	cfg := CampaignConfig{Builder: b, Spec: faults.SingleBitSoft, Seed: 5, Warmup: 20}
	sess := p.take()
	seen := map[Outcome]int{}
	for i := 0; i < 120; i++ {
		res, _, err := p.runTrial(sess, cfg, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want bool
		switch res.Outcome {
		case OutcomeMaskedOverwrite, OutcomeMaskedLogic:
		case OutcomeMaskedLatent:
			want = true
		default:
			continue
		}
		seen[res.Outcome]++
		if got := sess.Space().Observed(); got != want {
			t.Errorf("trial %d (%v): observed at the end = %v, want %v", i, res.Outcome, got, want)
		}
	}
	if seen[OutcomeMaskedLogic] == 0 || seen[OutcomeMaskedLatent] == 0 {
		t.Fatalf("want masked-by-logic and latent trials, got %v", seen)
	}
}

func TestTrialSeedDecorrelated(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := trialSeed(42, i)
		if seen[s] {
			t.Fatalf("duplicate trial seed at %d", i)
		}
		seen[s] = true
	}
}

func TestAllIncorrectTimes(t *testing.T) {
	res := &CampaignResult{
		Trials: []TrialResult{
			{InjectedAt: time.Minute, IncorrectAt: []time.Duration{2 * time.Minute, 5 * time.Minute}},
			{InjectedAt: 0, IncorrectAt: []time.Duration{10 * time.Minute}},
			{InjectedAt: 0},
		},
		counts: map[Outcome]int{},
	}
	got := res.AllIncorrectTimes()
	want := []float64{1, 4, 10}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestCampaignMetrics: the campaign counters and histograms agree with
// the result they describe.
func TestCampaignMetrics(t *testing.T) {
	reg := obsv.NewRegistry()
	res, err := Run(CampaignConfig{
		Builder:     kvBuilder(t, 13),
		Spec:        faults.SingleBitSoft,
		Trials:      24,
		Seed:        5,
		Parallelism: 4,
		RunOptions:  RunOptions{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["campaign_trials_total"]; got != 24 {
		t.Errorf("campaign_trials_total = %d", got)
	}
	var outcomeSum int64
	for _, o := range Outcomes() {
		n := snap.Counters["campaign_outcome_"+o.MetricName()]
		if n != int64(res.Count(o)) {
			t.Errorf("campaign_outcome_%s = %d, want %d", o.MetricName(), n, res.Count(o))
		}
		outcomeSum += n
	}
	if outcomeSum != 24 {
		t.Errorf("outcome counters sum to %d", outcomeSum)
	}
	var requests, incorrect int64
	for _, tr := range res.Trials {
		requests += int64(tr.Requests)
		incorrect += int64(tr.Incorrect)
	}
	if got := snap.Counters["campaign_requests_total"]; got != requests {
		t.Errorf("campaign_requests_total = %d, want %d", got, requests)
	}
	if got := snap.Counters["campaign_incorrect_responses_total"]; got != incorrect {
		t.Errorf("campaign_incorrect_responses_total = %d, want %d", got, incorrect)
	}
	for _, name := range []string{"campaign_trial_wall_ms", "campaign_trial_virtual_minutes"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count != 24 {
			t.Errorf("%s: %+v", name, h)
		}
	}
}

func TestCampaignMetricsDoNotChangeResults(t *testing.T) {
	run := func(reg *obsv.Registry) *CampaignResult {
		res, err := Run(CampaignConfig{
			Builder:    wsBuilder(t, 14),
			Spec:       faults.SingleBitSoft,
			Trials:     20,
			Seed:       6,
			RunOptions: RunOptions{Metrics: reg},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, instrumented := run(nil), run(obsv.NewRegistry())
	for i := range plain.Trials {
		a, b := plain.Trials[i], instrumented.Trials[i]
		if a.Outcome != b.Outcome || a.Region != b.Region ||
			a.Incorrect != b.Incorrect || a.EndedAt != b.EndedAt {
			t.Fatalf("trial %d differs with instrumentation:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestCampaignRecordsIncorrectOccurrences(t *testing.T) {
	// Hard errors in the read-mostly private region produce repeated
	// incorrect responses whose times spread over the run.
	res, err := Run(CampaignConfig{
		Builder: wsBuilder(t, 10),
		Spec:    faults.SingleBitHard,
		Trials:  60,
		Seed:    3,
		Filter:  func(r *simmem.Region) bool { return r.Kind() == simmem.RegionPrivate },
	})
	if err != nil {
		t.Fatal(err)
	}
	all := res.AllIncorrectTimes()
	first := res.TimesToEffect(OutcomeIncorrect)
	if len(all) < len(first) {
		t.Errorf("all occurrences (%d) fewer than first-effects (%d)", len(all), len(first))
	}
	for _, x := range all {
		if x < 0 {
			t.Fatalf("negative occurrence time %g", x)
		}
	}
}
