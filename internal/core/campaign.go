package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/faults"
	"hrmsim/internal/inject"
	"hrmsim/internal/monitor"
	"hrmsim/internal/obsv"
	"hrmsim/internal/simmem"
	"hrmsim/internal/stats"
)

// RunOptions are the engine knobs that do not identify a campaign: its
// hooks. A front end's config (hrmsim.CharacterizeConfig) embeds the same
// block and hands it to CampaignConfig as one value, so a knob is
// declared here and nowhere else.
type RunOptions struct {
	// Progress, if non-nil, receives the progress record: once before the
	// first dispatch, after every finished trial, and once with Running
	// false when the run ends, carrying the final plan. Calls are
	// serialized, so the hook needs no locking of its own; each Outcomes
	// map is fresh, the hook's to keep. It must be cheap, since it sits
	// between parallel trials.
	Progress func(ShardProgress)
	// Metrics, if non-nil, receives campaign instrumentation: trial and
	// outcome counters plus per-trial wall-clock and virtual-time
	// histograms. The metric names are documented in OBSERVABILITY.md.
	// Instrumentation never affects results or which trials are decided
	// — campaigns stay bit-identical with or without it.
	Metrics *obsv.Registry
}

// CampaignConfig describes one error-injection campaign: N independent
// trials of the Fig. 2 loop (restart app → inject → run client workload →
// compare against expected output).
type CampaignConfig struct {
	// Builder constructs the application. It must implement
	// apps.SnapshotBuilder: each worker builds and warms up one instance,
	// snapshots it, and restores it before every trial — step 1 of the
	// loop at the cost of rolling back the pages the last trial dirtied.
	Builder apps.Builder
	// Spec is the error type to inject.
	Spec faults.Spec
	// Trials is the size of the campaign's trial index space. With the
	// default fixed plan every index runs exactly once; an adaptive plan
	// may stop earlier (Trials then acts as the hard budget).
	Trials int
	// Planner, if non-nil, selects the adaptive plan: trials run segment
	// by segment, and the campaign stops once the Wilson CI half-width
	// of the crash probability reaches the rule's target (planner.go).
	// nil means the fixed plan: every owned index runs, ascending. An
	// adaptive plan needs the whole index space, so it cannot be
	// combined with a Shard spec.
	Planner *AdaptivePlanner
	// Seed makes the campaign deterministic; trial i derives its own
	// generator from it, so results are independent of Parallelism.
	Seed int64
	// Filter restricts injection to matching regions (nil = any used
	// byte, weighted by region size).
	Filter func(*simmem.Region) bool
	// Warmup is the number of requests served before injection
	// (injected errors then land in a warmed-up application).
	Warmup int
	// Parallelism bounds concurrent trials (default: GOMAXPROCS).
	Parallelism int
	// Golden, if non-nil, asserts the expected digests: the campaign
	// fails, naming the first request that differs, unless they equal the
	// golden run the build's fault-free pass records.
	Golden []uint64
	// RunOptions holds the knobs a front end hands through unchanged.
	RunOptions
	// Resume maps trial indices to results recorded by a previous,
	// interrupted run of the same campaign (see ReadJournal). Those
	// indices are not re-run; their results are merged in place, which
	// is bit-identical to running them because trial i's generator
	// depends only on (Seed, i).
	Resume map[int]TrialResult
	// Shard, if non-nil, restricts the run to the shard's contiguous
	// slice of trial indices (see ShardSpec.Range): the campaign keeps
	// its full identity — Trials, Seed, and the journal header are the
	// whole campaign's — but only the owned indices are dispatched.
	// Shards of one campaign are therefore independent processes whose
	// journals merge (MergeShards) into a result bit-identical to an
	// unsharded run. Resume records outside the shard's range are
	// ignored.
	Shard *ShardSpec
	// Journal, if non-nil, receives every trial result as it finishes
	// (flushed per record), so an interrupted campaign can resume.
	// Resumed trials are not re-journaled.
	Journal *Journal
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	// App is the application name.
	App string
	// Spec is the injected error type.
	Spec faults.Spec
	// Trials holds every trial that has a result — ran this run,
	// resumed from a journal, or aborted — in ascending Index order.
	// When the campaign was interrupted this is a prefix-biased subset
	// of the requested trials.
	Trials []TrialResult
	// Requested is the configured campaign size (cfg.Trials);
	// len(Trials) < Requested when the campaign was interrupted.
	Requested int
	// Planned is the trial count the campaign's plan settled on:
	// Requested under the fixed plan, the stopping boundary under an
	// adaptive one (Requested − Planned is the trials the adaptive rule
	// saved). For a worker shard it is always the whole campaign's
	// Requested.
	Planned int
	// PlanFinal reports the plan reached its final verdict — false
	// when an adaptive campaign was interrupted before its stopping rule
	// fired, so resuming it could grow Planned further.
	PlanFinal bool
	// Resumed counts trials whose results were merged from
	// CampaignConfig.Resume instead of being re-run.
	Resumed int
	// Interrupted reports that the context was cancelled before every
	// trial ran; in-flight trials were drained and are included.
	Interrupted bool
	// Parallelism is the number of trial workers the campaign ran with
	// (the resolved value); 0 for a result assembled by ResultFromTrials,
	// which has no worker pool.
	Parallelism int

	counts map[Outcome]int
}

// Completed returns the number of trials that ran to Fig. 1
// classification. It is the denominator of every probability estimate —
// aborted trials carry no outcome and must not dilute the statistics.
func (r *CampaignResult) Completed() int {
	n := 0
	for _, tr := range r.Trials {
		if tr.Disposition == DispositionCompleted {
			n++
		}
	}
	return n
}

// fold sets Trials to the trials of [0, n) with a result, in index order,
// and counts outcomes: the result assembly a run and a merge share.
func (r *CampaignResult) fold(n int, trial func(i int) (TrialResult, bool)) {
	r.counts = make(map[Outcome]int)
	for i := 0; i < n; i++ {
		tr, ok := trial(i)
		if !ok {
			continue
		}
		tr.Index = i
		r.Trials = append(r.Trials, tr)
		if tr.Disposition == DispositionCompleted {
			r.counts[tr.Outcome]++
		}
	}
}

// AbortedCount returns the number of trials the supervisor gave up on.
func (r *CampaignResult) AbortedCount() int {
	return len(r.Trials) - r.Completed()
}

// GoldenRun executes the full workload on a fresh instance and returns the
// expected response digests. It fails if the application crashes under no
// injection. It serves callers that assert CampaignConfig.Golden.
func GoldenRun(b apps.Builder) ([]uint64, error) {
	app, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("core: building golden instance: %w", err)
	}
	golden := make([]uint64, app.NumRequests())
	if q, err := serveFaultFree(app, golden, 0, len(golden), true); err != nil {
		return nil, goldenCrash(q, err)
	}
	return golden, nil
}

func goldenCrash(q int, err error) error {
	return fmt.Errorf("core: golden run crashed at request %d: %w", q, err)
}

// errOffGolden is a fault-free response whose digest differs from golden.
var errOffGolden = errors.New("mismatched golden output")

// serveFaultFree is the engine's one fault-free serve loop: it serves
// requests [from, to) of an instance carrying no injected error and stores
// each digest in golden[q] when record is set, or checks it against
// golden[q]. It stops at the first request that crashes or mismatches,
// returning its index with the crash or errOffGolden.
func serveFaultFree(app apps.App, golden []uint64, from, to int, record bool) (int, error) {
	for q := from; q < to; q++ {
		resp, err := serveGuarded(app, q)
		switch {
		case err != nil:
			return q, err
		case record:
			golden[q] = resp.Digest
		case resp.Digest != golden[q]:
			return q, errOffGolden
		}
	}
	return to, nil
}

// Prepared is one application build made ready for campaigns (DESIGN.md
// §9): the golden run and window record of its one fault-free pass, and a
// pool of sessions (instances built, warmed up and snapshotted) that every
// campaign Run on it shares, concurrent ones too. A grid of cells over one
// build thus serves its window fault-free once.
type Prepared struct {
	sb      apps.SnapshotBuilder
	warmup  int
	golden  []uint64
	profile *monitor.Profile // read-only; nil: every trial simulates
	// used are the built instance's regions holding a used byte, and
	// kinds the kinds of all its regions: Run checks filters against them.
	used  []*simmem.Region
	kinds []string

	mu   sync.Mutex
	pool []apps.SnapshotApp
}

// Prepare builds one instance and serves its workload fault-free once,
// recording the golden digests: 0..warmup; Snapshot; the window under a
// monitor.Profile, ended by Finish; Reset, which leaves the instance as
// the pool's first session. The profile is dropped when a fault can act
// other than through the first access to its granule (observers the
// snapshot retains) or when it missed an access the instance counted.
func Prepare(b apps.Builder, warmup int) (*Prepared, error) {
	sb, err := snapshotBuilder(b)
	if err != nil {
		return nil, err
	}
	app, err := sb.BuildSnapshot()
	if err != nil {
		return nil, fmt.Errorf("core: building golden instance: %w", err)
	}
	p := &Prepared{sb: sb, warmup: warmup, golden: make([]uint64, app.NumRequests())}
	// Checked before any request is served.
	if warmup < 0 || warmup >= len(p.golden) {
		return nil, fmt.Errorf("core: warmup %d outside [0,%d)", warmup, len(p.golden))
	}
	as := app.Space()
	for _, r := range as.Regions() {
		if r.Used() > 0 {
			p.used = append(p.used, r)
		}
		p.kinds = append(p.kinds, r.Kind().String())
	}
	if q, err := serveFaultFree(app, p.golden, 0, warmup, true); err != nil {
		return nil, goldenCrash(q, err)
	}
	if err := app.Snapshot(); err != nil {
		return nil, fmt.Errorf("core: snapshotting golden instance: %w", err)
	}
	var prof *monitor.Profile
	if !as.Observed() {
		prof = monitor.New(as)
		as.AddAccessObserver(prof)
	}
	before := as.Counters()
	if q, err := serveFaultFree(app, p.golden, warmup, len(p.golden), true); err != nil {
		return nil, goldenCrash(q, err)
	}
	if after := as.Counters(); prof != nil && prof.Accesses == (after.Loads-before.Loads)+(after.Stores-before.Stores) {
		prof.Finish(as)
		p.profile = prof
	}
	if _, err := app.Reset(); err != nil {
		return nil, fmt.Errorf("core: restoring golden instance: %w", err)
	}
	p.pool = []apps.SnapshotApp{app}
	return p, nil
}

// Golden returns the golden run's digests; callers must not modify them.
func (p *Prepared) Golden() []uint64 { return p.golden }

// Profile returns the record of the fault-free window, or nil when a
// fallback dropped it (see Prepare); callers must not modify it.
func (p *Prepared) Profile() *monitor.Profile { return p.profile }

// WithSession lends fn a pooled session reset to the start of the window
// (the post-warmup snapshot), building one only when the pool is empty.
// The session goes back to the pool when fn returns nil and is dropped
// when it fails. fn must not keep the session.
func (p *Prepared) WithSession(fn func(apps.SnapshotApp) error) error {
	sess := p.take()
	if sess == nil {
		var err error
		if sess, err = p.newSession(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if _, err := sess.Reset(); err != nil {
		return fmt.Errorf("core: restoring snapshot: %w", err)
	}
	if err := fn(sess); err != nil {
		return err
	}
	p.put(sess)
	return nil
}

// Run runs one campaign on the prepared build, under the same checks and
// cancellation contract as RunContext. It refuses a cfg whose Builder or
// Warmup is not the prepared one, or whose non-nil Golden differs from
// the recorded run.
func (p *Prepared) Run(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	rule, err := checkCampaign(cfg)
	switch {
	case err != nil:
		return nil, err
	case cfg.Builder != p.sb:
		return nil, fmt.Errorf("core: the campaign's %s builder is not the one the build was prepared from", cfg.Builder.AppName())
	case cfg.Warmup != p.warmup:
		return nil, fmt.Errorf("core: campaign warmup %d, but the build was prepared at warmup %d", cfg.Warmup, p.warmup)
	case cfg.Golden != nil && !slices.Equal(cfg.Golden, p.golden):
		q := 0
		for q < min(len(cfg.Golden), len(p.golden)) && cfg.Golden[q] == p.golden[q] {
			q++
		}
		return nil, fmt.Errorf("core: the supplied golden run differs from the recorded one at request %d", q)
	}
	// Else every trial would draw no address, and no trial complete.
	if !slices.ContainsFunc(p.used, func(r *simmem.Region) bool { return cfg.Filter == nil || cfg.Filter(r) }) {
		return nil, fmt.Errorf("core: %s maps %s, and no used byte of them passes the campaign's region filter: %w",
			p.sb.AppName(), strings.Join(p.kinds, ", "), inject.ErrNoTarget)
	}
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &supervisor{cfg: cfg, prep: p, par: min(par, cfg.Trials), adaptive: cfg.Planner != nil,
		rule: rule, m: newCampaignMetrics(cfg.Metrics)}
	return s.run(ctx), nil
}

// take hands a worker a pooled session, or nil when the pool is empty.
func (p *Prepared) take() (sess apps.SnapshotApp) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.pool); n > 0 {
		sess, p.pool = p.pool[n-1], p.pool[:n-1]
	}
	return sess
}

// put returns a worker's session, if it has one, to the pool.
func (p *Prepared) put(sess apps.SnapshotApp) {
	if sess != nil {
		p.mu.Lock()
		p.pool = append(p.pool, sess)
		p.mu.Unlock()
	}
}

// newSession builds, warms up (checked against golden) and snapshots one
// session: every session but the pass's is built here.
func (p *Prepared) newSession() (apps.SnapshotApp, error) {
	app, err := p.sb.BuildSnapshot()
	if err != nil {
		return nil, fmt.Errorf("building app: %w", err)
	}
	if q, err := serveFaultFree(app, p.golden, 0, p.warmup, false); err == errOffGolden {
		return nil, fmt.Errorf("warmup request %d %w", q, err)
	} else if err != nil {
		return nil, fmt.Errorf("warmup request %d crashed: %w", q, err)
	}
	if err := app.Snapshot(); err != nil {
		return nil, fmt.Errorf("snapshotting app: %w", err)
	}
	return app, nil
}

// snapshotBuilder returns b as the apps.SnapshotBuilder sessions build from.
func snapshotBuilder(b apps.Builder) (apps.SnapshotBuilder, error) {
	if b == nil {
		return nil, fmt.Errorf("core: campaign needs a builder")
	}
	sb, ok := b.(apps.SnapshotBuilder)
	if !ok {
		return nil, fmt.Errorf("core: lifecycle snapshot requires an apps.SnapshotBuilder; %s builder does not implement it",
			b.AppName())
	}
	return sb, nil
}

// checkCampaign makes the checks that need no build, and returns an
// adaptive plan's rule clamped to the campaign size.
func checkCampaign(cfg CampaignConfig) (rule stats.SequentialStopping, err error) {
	if _, err := snapshotBuilder(cfg.Builder); err != nil {
		return rule, err
	}
	if cfg.Trials <= 0 {
		return rule, fmt.Errorf("core: trials must be positive, got %d", cfg.Trials)
	}
	if err := cfg.Spec.Validate(); err != nil {
		return rule, err
	}
	for i := range cfg.Resume {
		if i < 0 || i >= cfg.Trials {
			return rule, fmt.Errorf("core: resume record for trial %d outside [0,%d)", i, cfg.Trials)
		}
	}
	if cfg.Shard != nil {
		if err := cfg.Shard.Validate(); err != nil {
			return rule, err
		}
		// Fail sharded adaptive campaigns before the expensive fault-free
		// pass. A 1-shard spec is refused too: merge expects a record
		// for every index, and an adaptive plan stops short of them.
		if cfg.Planner != nil {
			return rule, fmt.Errorf("core: an adaptive plan needs the whole trial index space; shard %d/%d campaigns must use the fixed plan — run adaptive campaigns unsharded (see SHARDING.md)", cfg.Shard.Index, cfg.Shard.Count)
		}
	}
	if cfg.Planner != nil {
		return clampRule(cfg.Planner.Rule, cfg.Trials)
	}
	return rule, nil
}

// Run executes the campaign to completion (no cancellation).
func Run(cfg CampaignConfig) (*CampaignResult, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the campaign under a context: the checks that need
// no build, Prepare, then one Prepared.Run. Cancelling the context stops
// dispatching new trials, drains the in-flight ones, and returns the
// partial result with Interrupted set — never an error — so a SIGINT still
// yields every finished trial (and, with a Journal, a resumable record).
func RunContext(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	if _, err := checkCampaign(cfg); err != nil {
		return nil, err
	}
	p, err := Prepare(cfg.Builder, cfg.Warmup)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx, cfg)
}

// campaignMetrics holds the pre-resolved metric handles of one campaign
// (nil receiver = instrumentation off). Names per OBSERVABILITY.md.
type campaignMetrics struct {
	reg        *obsv.Registry
	trials     *obsv.Counter
	decided    *obsv.Counter
	requests   *obsv.Counter
	incorrect  *obsv.Counter
	restores   *obsv.Counter
	aborted    *obsv.Counter
	journal    *obsv.Counter
	resumeSkip *obsv.Counter
	fastLoads  *obsv.Counter
	fastWords  *obsv.Counter
	outcomes   map[Outcome]*obsv.Counter
	wallMs     *obsv.Histogram
	virtMin    *obsv.Histogram
	dirtyPages *obsv.Histogram
}

func newCampaignMetrics(reg *obsv.Registry) *campaignMetrics {
	if reg == nil {
		return nil
	}
	m := &campaignMetrics{
		reg:        reg,
		trials:     reg.Counter("campaign_trials_total"),
		decided:    reg.Counter("campaign_trials_decided_total"),
		requests:   reg.Counter("campaign_requests_total"),
		incorrect:  reg.Counter("campaign_incorrect_responses_total"),
		restores:   reg.Counter("campaign_snapshot_restores_total"),
		aborted:    reg.Counter(obsv.LabeledName("campaign_trials_aborted_total", "reason", AbortReasonWorkerError)),
		journal:    reg.Counter("campaign_journal_records_total"),
		resumeSkip: reg.Counter("campaign_resume_skipped_total"),
		fastLoads:  reg.Counter("simmem_fastpath_loads_total"),
		fastWords:  reg.Counter("simmem_fastpath_words_total"),
		outcomes:   make(map[Outcome]*obsv.Counter, len(Outcomes())),
		// Trial wall-clock cost: 0.25 ms .. ~8 s.
		wallMs: reg.Histogram("campaign_trial_wall_ms", obsv.ExpBuckets(0.25, 2, 16)),
		// Post-injection virtual span: 1 min .. ~5.7 days.
		virtMin: reg.Histogram("campaign_trial_virtual_minutes", obsv.ExpBuckets(1, 2, 14)),
		// Pages rolled back per restore: 1 .. 32768.
		dirtyPages: reg.Histogram("campaign_snapshot_dirty_pages", obsv.ExpBuckets(1, 2, 16)),
	}
	for _, o := range Outcomes() {
		m.outcomes[o] = reg.Counter("campaign_outcome_" + o.MetricName())
	}
	return m
}

// trialStats are the harness-side figures of one trial, returned
// next to its TrialResult and recorded with the outcome.
type trialStats struct {
	// dirtyPages is the number of pages the pre-trial restore rolled back.
	dirtyPages int
	// fastLoads and fastWords are the post-injection loads and words
	// served by the clean-word fast path: zero for a decided trial, which
	// performs no loads.
	fastLoads, fastWords uint64
	// decided marks a trial classified from the session's access profile
	// without being served (decide.go).
	decided bool
}

// recordTrial adds one completed trial to the registry. Aborted trials
// are never recorded here, so they stay out of every completed-trial
// counter.
func (m *campaignMetrics) recordTrial(tr TrialResult, ts trialStats, wall time.Duration) {
	if m == nil {
		return
	}
	m.trials.Inc()
	if ts.decided {
		m.decided.Inc()
	}
	m.requests.Add(int64(tr.Requests))
	m.incorrect.Add(int64(tr.Incorrect))
	if c, ok := m.outcomes[tr.Outcome]; ok {
		c.Inc()
	}
	m.wallMs.Observe(float64(wall) / float64(time.Millisecond))
	m.virtMin.Observe((tr.EndedAt - tr.InjectedAt).Minutes())
	m.restores.Inc()
	m.dirtyPages.Observe(float64(ts.dirtyPages))
	m.fastLoads.Add(int64(ts.fastLoads))
	m.fastWords.Add(int64(ts.fastWords))
}

// recordAbort counts one aborted trial (AbortReasonWorkerError).
func (m *campaignMetrics) recordAbort() {
	if m == nil {
		return
	}
	m.aborted.Inc()
}

// recordVerdict meters one adaptive stop/continue verdict. The handles
// are resolved lazily through the registry (verdicts are a cold path —
// one per evaluation boundary) so fixed campaigns, which make none,
// expose no adaptive metric rows at all.
func (m *campaignMetrics) recordVerdict(v verdict, requested int) {
	if m == nil {
		return
	}
	m.reg.Gauge("campaign_ci_half_width").Set(v.halfWidth)
	if v.replayed || !v.stop {
		return
	}
	if !v.exhausted {
		m.reg.Counter("campaign_adaptive_stopped_total").Inc()
	}
	if saved := requested - v.boundary; saved > 0 {
		m.reg.Counter("campaign_trials_saved_total").Add(int64(saved))
	}
}

// recordJournal counts one appended journal record.
func (m *campaignMetrics) recordJournal() {
	if m == nil {
		return
	}
	m.journal.Inc()
}

// recordResumeSkip counts one trial skipped because a resume journal
// already held its result.
func (m *campaignMetrics) recordResumeSkip() {
	if m == nil {
		return
	}
	m.resumeSkip.Inc()
}

// trialSeed derives a decorrelated per-trial seed (splitmix-style).
func trialSeed(seed int64, i int) int64 {
	x := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// runTrial performs one pass of the Fig. 2 loop on a session of the build:
// restore, inject, run the post-warmup client workload, classify. The
// per-trial rng depends only on (Seed, i), and restore rolls the instance
// back to the post-warmup capture, so the trial is bit-identical to one
// run on a freshly built instance. A trial the campaign's record decides
// ends after the address draw: nothing is injected and nothing served.
// A non-nil log (explain's; a campaign passes nil) records the draw and
// what the injected error met.
func (p *Prepared) runTrial(sess apps.SnapshotApp, cfg CampaignConfig, i int, log *trialLog) (TrialResult, trialStats, error) {
	rng := rand.New(rand.NewSource(trialSeed(cfg.Seed, i)))
	dirty, err := sess.Reset()
	if err != nil {
		return TrialResult{}, trialStats{}, fmt.Errorf("restoring snapshot: %w", err)
	}
	// Fetched per trial: Reset may have swapped the instance.
	as := sess.Space()

	// Inject (Algorithm 1(a)): inject.Random's two halves, with the
	// decision between them, so the generator stream is unchanged.
	addr, ok := as.SampleAddr(rng, cfg.Filter)
	if !ok {
		return TrialResult{}, trialStats{}, fmt.Errorf("injecting: %w", inject.ErrNoTarget)
	}
	if log != nil {
		log.Addr = addr
	}
	golden := p.golden
	if tr, ok := decide(p.profile, len(golden)-cfg.Warmup, addr, cfg.Spec); ok {
		return tr, trialStats{decided: true, dirtyPages: dirty}, nil
	}
	startFast := as.FastPathLoads()
	startWords := as.FastPathWords()
	inj, err := inject.At(as, rng, addr, cfg.Spec)
	if err != nil {
		return TrialResult{}, trialStats{}, fmt.Errorf("injecting: %w", err)
	}
	addrs := make([]simmem.Addr, len(inj.Targets))
	for k, t := range inj.Targets {
		addrs[k] = t.Addr
	}
	tracker := newAccessTracker(as, addrs)
	if log != nil {
		log.Injection = inj
		as.AddAccessObserver(log)
		as.AddECCObserver(log)
	}

	tr := TrialResult{
		Region:     inj.Region.Name(),
		Kind:       inj.Region.Kind(),
		InjectedAt: as.Clock().Now(),
	}

	// Run the client workload (Fig. 2 steps 3–5).
	crashed := false
	for q := cfg.Warmup; q < len(golden); q++ {
		resp, serveErr := serveGuarded(sess, q)
		if serveErr != nil {
			if !apps.IsCrash(serveErr) {
				return TrialResult{}, trialStats{}, fmt.Errorf("request %d: unexpected error: %w", q, serveErr)
			}
			crashed = true
			tr.CrashReason = serveErr.Error()
			var pc *panicCrash
			if errors.As(serveErr, &pc) {
				tr.CrashStack = pc.stack
			}
			if tr.EffectAt == 0 {
				tr.EffectAt = as.Clock().Now()
			}
			break
		}
		tr.Requests++
		if resp.Digest != golden[q] {
			tr.Incorrect++
			if tr.EffectAt == 0 {
				tr.EffectAt = as.Clock().Now()
			}
			if len(tr.IncorrectAt) < maxIncorrectTimes {
				tr.IncorrectAt = append(tr.IncorrectAt, as.Clock().Now())
			}
		}
	}
	tr.Outcome = classify(crashed, tr.Incorrect, tracker.first)
	// The run ends at the crash instant or after the final request —
	// either way, the virtual clock has stopped advancing.
	tr.EndedAt = as.Clock().Now()
	return tr, trialStats{
		dirtyPages: dirty,
		fastLoads:  as.FastPathLoads() - startFast,
		fastWords:  as.FastPathWords() - startWords,
	}, nil
}

// serveGuarded converts panics in application code (parsing corrupted
// bytes) into crash-worthy errors, like a segfault handler would, keeping
// the sanitized panic stack so crash outcomes are debuggable.
func serveGuarded(app apps.App, q int) (resp apps.Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicCrash{
				err:   apps.Assertf("panic serving request %d: %v", q, r),
				stack: sanitizeStack(debug.Stack()),
			}
		}
	}()
	return app.Serve(q)
}

// panicCrash is a crash-worthy error (it wraps apps.ErrAssert) carrying
// the goroutine stack captured at the recovery point.
type panicCrash struct {
	err   error
	stack string
}

func (e *panicCrash) Error() string { return e.err.Error() }
func (e *panicCrash) Unwrap() error { return e.err }

// sanitizeStack reduces a debug.Stack capture to its deterministic core:
// the frames above the serveGuarded recovery point, with the goroutine
// header, argument values, and frame offsets stripped. Campaign results
// must stay bit-identical across parallelism, sharding, and resume; a
// raw stack is not (goroutine ids, pointer arguments, worker frames),
// but the panicking call chain inside the application is.
func sanitizeStack(stack []byte) string {
	var out []string
	for i, line := range strings.Split(string(stack), "\n") {
		if i == 0 && strings.HasPrefix(line, "goroutine ") {
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			// Function line. Below the recovery point the frames depend
			// on worker scheduling — stop there.
			if strings.HasPrefix(line, "hrmsim/internal/core.serveGuarded(") {
				break
			}
			// Cut at the argument list — the LAST '(', since method
			// receivers put one in the frame name: pkg.(*T).M(0x...).
			if j := strings.LastIndexByte(line, '('); j >= 0 {
				line = line[:j]
			}
		} else if j := strings.LastIndex(line, " +0x"); j >= 0 {
			// Location line: strip the frame offset.
			line = line[:j]
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// Count returns the number of trials with the given outcome.
func (r *CampaignResult) Count(o Outcome) int { return r.counts[o] }

// CrashProbability estimates P(crash | one injected error) with a Wilson
// interval at the given confidence level (the paper uses 0.90). The
// denominator is the completed trials — aborted ones carry no outcome.
func (r *CampaignResult) CrashProbability(level float64) (stats.Proportion, error) {
	return stats.WilsonInterval(r.counts[OutcomeCrash], r.Completed(), level)
}

// ToleratedProbability estimates the probability that an error is masked
// (outcomes 1 and 2.1, plus latent).
func (r *CampaignResult) ToleratedProbability(level float64) (stats.Proportion, error) {
	n := r.counts[OutcomeMaskedOverwrite] + r.counts[OutcomeMaskedLogic] + r.counts[OutcomeMaskedLatent]
	return stats.WilsonInterval(n, r.Completed(), level)
}

// IncorrectPerBillion returns the mean rate of incorrect responses per
// billion requests across all trials, and the maximum single-trial rate
// (the paper's Fig. 3b/4b error bars).
func (r *CampaignResult) IncorrectPerBillion() (mean, max float64) {
	var totalIncorrect, totalRequests float64
	for _, tr := range r.Trials {
		if tr.Requests == 0 {
			continue
		}
		totalIncorrect += float64(tr.Incorrect)
		totalRequests += float64(tr.Requests)
		rate := float64(tr.Incorrect) / float64(tr.Requests) * 1e9
		if rate > max {
			max = rate
		}
	}
	if totalRequests > 0 {
		mean = totalIncorrect / totalRequests * 1e9
	}
	return mean, max
}

// maxIncorrectTimes caps the per-trial incorrect-time samples.
const maxIncorrectTimes = 256

// AllIncorrectTimes returns the injection-to-occurrence latencies (in
// minutes of virtual time) of every recorded incorrect response across
// all trials — the paper's Fig. 5a measures when outcomes *occur*, and
// incorrect results recur throughout the run as corrupted data is
// re-consumed ("periodically incorrect").
func (r *CampaignResult) AllIncorrectTimes() []float64 {
	var out []float64
	for _, tr := range r.Trials {
		for _, at := range tr.IncorrectAt {
			out = append(out, (at - tr.InjectedAt).Minutes())
		}
	}
	return out
}

// TimesToEffect returns the injection-to-effect latencies (in minutes of
// virtual time) of trials with the given outcome — the Fig. 5a samples.
func (r *CampaignResult) TimesToEffect(o Outcome) []float64 {
	var out []float64
	for _, tr := range r.Trials {
		if tr.Outcome != o {
			continue
		}
		if d, ok := tr.TimeToEffect(); ok {
			out = append(out, d.Minutes())
		}
	}
	return out
}
