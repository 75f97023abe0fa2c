package hrmsim

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"hrmsim/internal/apps"
	"hrmsim/internal/core"
	"hrmsim/internal/experiments"
	"hrmsim/internal/faults"
	"hrmsim/internal/inject"
	"hrmsim/internal/monitor"
	"hrmsim/internal/simmem"
	"hrmsim/internal/stats"
)

// App names a case-study application.
type App string

// The three data-intensive applications of the paper's case study.
const (
	// AppWebSearch is the interactive web search index server
	// (read-only in-memory index cache, the paper's WebSearch).
	AppWebSearch App = "websearch"
	// AppKVStore is the in-memory key–value store (the paper's
	// Memcached workload).
	AppKVStore App = "kvstore"
	// AppGraphMine is the graph-mining framework running TunkRank (the
	// paper's GraphLab workload).
	AppGraphMine App = "graphmine"
)

// Apps lists the applications in paper order.
func Apps() []App { return []App{AppWebSearch, AppKVStore, AppGraphMine} }

// ErrorType names an injected memory error type.
type ErrorType string

// Error types studied by the paper (Fig. 6).
const (
	// SoftSingleBit is a transient single-bit flip, cleared by any
	// overwrite.
	SoftSingleBit ErrorType = "soft-1bit"
	// HardSingleBit is a recurring single-bit fault (stuck-at cell).
	HardSingleBit ErrorType = "hard-1bit"
	// HardDoubleBit is a recurring two-bit fault in one byte.
	HardDoubleBit ErrorType = "hard-2bit"
)

// ErrorTypes lists the error types in paper order.
func ErrorTypes() []ErrorType {
	return []ErrorType{SoftSingleBit, HardSingleBit, HardDoubleBit}
}

// Region names an application memory region, or AnyRegion for the whole
// address space.
type Region string

// Regions (Table 2).
const (
	AnyRegion     Region = ""
	RegionPrivate Region = "private"
	RegionHeap    Region = "heap"
	RegionStack   Region = "stack"
)

// WorkloadSize selects how large the synthetic application builds are;
// each application package owns its geometry per size.
type WorkloadSize = apps.Size

// Workload sizes.
const (
	// SizeSmall builds tiny instances for fast iteration and tests.
	SizeSmall = apps.SizeSmall
	// SizeMedium matches the scale used by the paper-reproduction
	// experiments (the default).
	SizeMedium = apps.SizeMedium
	// SizeLarge builds bigger instances for longer campaigns.
	SizeLarge = apps.SizeLarge
)

// specFor converts the public error type.
func specFor(e ErrorType) (faults.Spec, error) {
	switch e {
	case SoftSingleBit:
		return faults.SingleBitSoft, nil
	case HardSingleBit:
		return faults.SingleBitHard, nil
	case HardDoubleBit:
		return faults.DoubleBitHard, nil
	default:
		return faults.Spec{}, fmt.Errorf("hrmsim: unknown error type %q", e)
	}
}

// kindFor converts the public region name.
func kindFor(r Region) (simmem.RegionKind, error) {
	switch r {
	case AnyRegion:
		return 0, nil
	case RegionPrivate:
		return simmem.RegionPrivate, nil
	case RegionHeap:
		return simmem.RegionHeap, nil
	case RegionStack:
		return simmem.RegionStack, nil
	default:
		return 0, fmt.Errorf("hrmsim: unknown region %q", r)
	}
}

// NewBuilder constructs an application builder at a given size and seed.
// The returned builder creates fresh, identical instances — one per
// injection trial.
func NewBuilder(app App, size WorkloadSize, seed int64) (apps.Builder, error) {
	b, err := experiments.NewBuilder(string(app), size, seed)
	if err != nil {
		return nil, fmt.Errorf("hrmsim: %w", err)
	}
	return b, nil
}

// CharacterizeConfig configures an injection campaign.
type CharacterizeConfig struct {
	// App is the application to characterize.
	App App
	// Error is the error type to inject (default SoftSingleBit).
	Error ErrorType
	// Region restricts injection (default AnyRegion: whole address
	// space, weighted by region size).
	Region Region
	// Trials is the size of the campaign's trial index space (default
	// 200). With TargetCI unset every index runs exactly once (the
	// classic fixed-N campaign); with TargetCI set, Trials is the hard
	// budget the adaptive plan may stop short of.
	Trials int
	// TargetCI, if positive, switches the campaign from the fixed plan
	// to the adaptive one: trials run in deterministic segments until
	// the 90% Wilson confidence interval on the crash probability has
	// half-width at most TargetCI (e.g. 0.02 for ±2 points), or until
	// all Trials have run. Results are bit-identical across Parallelism
	// and across interrupt/resume, exactly like fixed campaigns.
	// Incompatible with ShardCount (an adaptive plan needs the whole
	// trial index space — see SHARDING.md).
	TargetCI float64
	// MinTrials, with TargetCI, is the first CI evaluation boundary:
	// the campaign never stops earlier, however tight the interval
	// (default 30, clamped to Trials).
	MinTrials int
	// Seed makes the campaign deterministic (default 1).
	Seed int64
	// Size selects the workload scale (default SizeMedium).
	Size WorkloadSize
	// Parallelism bounds concurrent trials (default GOMAXPROCS; a
	// negative value is an error).
	Parallelism int
	// RunOptions are the engine knobs, handed to the campaign as they
	// are (field docs on core.RunOptions): the Progress hook (calls are
	// serialized; it must be cheap) and the observational Metrics
	// registry. The block's type is internal, so outside this module set
	// its fields by selector (cfg.Progress = …); Metrics takes an
	// internal type and is reached through the CLI's -json and -journal.
	core.RunOptions
	// Context, if non-nil, allows interrupting the campaign: on
	// cancellation the engine stops dispatching trials, drains the
	// in-flight ones, and Characterize returns the partial result with
	// Interrupted set (not an error).
	Context context.Context
	// JournalPath, if non-empty, appends one flushed JSONL record per
	// finished trial to this file so an interrupted campaign can resume.
	// The file is created with a schema-versioned header identifying the
	// campaign and shard (re-using another's is an error); when the run
	// ends, a trailer line marks the shard finished for `hrmsim status`
	// and MergeShards (SHARDING.md). An unsharded journal is shard 0/1.
	JournalPath string
	// ResumePath, if non-empty, reads a journal written by a previous
	// interrupted run of this same campaign and skips the trial indices
	// it records — typically the same file as JournalPath. The merged
	// result is bit-identical to an uninterrupted run.
	ResumePath string
	// ShardIndex / ShardCount, when ShardCount > 0, restrict the run to
	// shard ShardIndex's contiguous slice of the campaign's trial
	// indices (the CLI's `-shard i/N`). The campaign identity — Trials,
	// Seed, the journal header — stays the whole campaign's, so N shard
	// journals merge (MergeShards) into a result bit-identical to an
	// unsharded run. The full shard/merge contract is documented in
	// SHARDING.md. ShardCount == 0 means unsharded.
	ShardIndex int
	ShardCount int
}

// ProgressInfo is the Progress hook's record, a status row's progress
// block; its rates are host wall-clock derived. While an adaptive plan is
// open-ended (Adaptive && !PlanFinal), Total is its next evaluation
// boundary.
type ProgressInfo = core.ShardProgress

// Characterization is the result of one campaign: the application's
// measured tolerance to the injected error type.
type Characterization struct {
	App    App
	Error  ErrorType
	Region Region
	Trials int
	// Parallelism is the effective number of concurrent trial workers
	// the campaign ran with (the resolved value, never zero). It does
	// not affect results — campaigns are bit-identical at any
	// parallelism — only wall-clock cost.
	Parallelism int
	// CrashProbability is P(crash | one injected error), with a 90%
	// Wilson confidence interval.
	CrashProbability        float64
	CrashCILow, CrashCIHigh float64
	// ToleratedProbability is P(error masked with no external effect).
	ToleratedProbability float64
	// IncorrectPerBillion is the mean rate of incorrect responses per
	// billion queries; MaxIncorrectPerBillion is the worst single trial
	// (the paper's error bars).
	IncorrectPerBillion    float64
	MaxIncorrectPerBillion float64
	// Outcomes counts trials by taxonomy leaf (Fig. 1), keyed by
	// outcome name.
	Outcomes map[string]int
	// CrashMinutes and IncorrectMinutes are injection-to-first-effect
	// latencies in virtual minutes.
	CrashMinutes, IncorrectMinutes []float64
	// AllIncorrectMinutes holds the time of every recorded incorrect
	// response (not just the first per trial) — corrupted data keeps
	// producing wrong answers as it is re-consumed, the paper's
	// "periodically incorrect" behaviour (Fig. 5a).
	AllIncorrectMinutes []float64
	// Interrupted reports that the campaign's context was cancelled
	// (SIGINT) before every trial ran; the aggregates above cover the
	// trials that did run.
	Interrupted bool
	// Completed, Aborted, and Resumed break down the trials that have
	// results: ran to Fig. 1 classification, given up because their
	// worker failed (never part of the probability denominators), and
	// merged from a resume journal instead of re-run. Completed+Aborted
	// can be less than Trials when Interrupted.
	Completed int
	Aborted   int
	Resumed   int
	// TargetCI echoes CharacterizeConfig.TargetCI (zero for fixed
	// campaigns). Planned is the trial count the plan settled on —
	// Trials under the fixed plan, the adaptive stopping boundary
	// otherwise — and TrialsSaved is Trials − Planned once the adaptive
	// rule fired: the trials the requested CI made unnecessary.
	TargetCI    float64
	Planned     int
	TrialsSaved int
	// Shard, when the campaign ran as one shard of a larger campaign
	// (CharacterizeConfig.ShardCount > 0), records the shard coordinates
	// and owned trial range; the aggregates above then cover only that
	// range. Nil for unsharded runs and for merged results.
	Shard *ShardInfo
}

// ShardInfo records which slice of a sharded campaign a
// characterization covers (see SHARDING.md).
type ShardInfo struct {
	// Index / Count are the shard coordinates (the `-shard i/N` flag).
	Index int `json:"index"`
	Count int `json:"count"`
	// TrialLo / TrialHi bound the owned half-open trial index range.
	TrialLo int `json:"trial_lo"`
	TrialHi int `json:"trial_hi"`
}

// Characterize runs an error-injection campaign (the paper's Fig. 2 loop)
// and reports the application's measured tolerance.
func Characterize(cfg CharacterizeConfig) (*Characterization, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	ccfg, meta, err := cfg.campaign()
	if err != nil {
		return nil, err
	}
	if err := cfg.openJournals(&ccfg, meta); err != nil {
		return nil, err
	}
	var final ProgressInfo // the trailer's source
	if ccfg.Journal != nil {
		user := cfg.Progress
		ccfg.Progress = func(p ProgressInfo) {
			final = p
			if user != nil {
				user(p)
			}
		}
	}
	res, runErr := core.RunContext(cfg.Context, ccfg)
	if ccfg.Journal != nil {
		if runErr == nil {
			// A write error is sticky, so Close returns it.
			trailer := core.JournalFinal{ElapsedSeconds: final.ElapsedSeconds, TrialsPerSec: final.TrialsPerSec,
				Resumed: final.Resumed, Interrupted: final.Interrupted}
			if cfg.Metrics != nil {
				snap := cfg.Metrics.Snapshot()
				trailer.Metrics = &snap
			}
			_ = ccfg.Journal.Finish(trailer)
		}
		if cerr := ccfg.Journal.Close(); cerr != nil && runErr == nil {
			runErr = fmt.Errorf("hrmsim: trial journal: %w", cerr)
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	out, err := newCharacterization(cfg.App, cfg.Error, cfg.Region, cfg.Trials, res)
	if err != nil {
		return nil, err
	}
	out.TargetCI = cfg.TargetCI
	if sh := ccfg.Shard; sh != nil {
		lo, hi := sh.Range(cfg.Trials)
		out.Shard = &ShardInfo{Index: sh.Index, Count: sh.Count, TrialLo: lo, TrialHi: hi}
	}
	return out, nil
}

// resolve fills in the defaults and rejects inconsistent settings, leaving
// cfg as the campaign's resolved identity.
func (cfg *CharacterizeConfig) resolve() error {
	if cfg.App == "" {
		return fmt.Errorf("hrmsim: CharacterizeConfig.App is required")
	}
	if cfg.Error == "" {
		cfg.Error = SoftSingleBit
	}
	if cfg.Trials == 0 {
		cfg.Trials = 200
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	adaptive := cfg.TargetCI > 0
	switch {
	case !adaptive && cfg.TargetCI != 0:
		return fmt.Errorf("hrmsim: TargetCI must be positive, got %g", cfg.TargetCI)
	case !adaptive && cfg.MinTrials != 0:
		return fmt.Errorf("hrmsim: MinTrials is an adaptive-campaign guard rail and requires TargetCI")
	case adaptive && cfg.TargetCI >= 1:
		return fmt.Errorf("hrmsim: TargetCI is a probability half-width and must be below 1, got %g", cfg.TargetCI)
	}
	if adaptive {
		if cfg.MinTrials == 0 {
			cfg.MinTrials = min(core.DefaultAdaptiveMinTrials, cfg.Trials)
		}
		if cfg.MinTrials < 0 || cfg.MinTrials > cfg.Trials {
			return fmt.Errorf("hrmsim: MinTrials %d outside [1,%d]", cfg.MinTrials, cfg.Trials)
		}
	}
	if cfg.ShardCount == 0 && cfg.ShardIndex != 0 {
		return fmt.Errorf("hrmsim: ShardIndex %d set without ShardCount", cfg.ShardIndex)
	}
	if cfg.Parallelism < 0 {
		return fmt.Errorf("hrmsim: Parallelism (-parallelism) must not be negative, got %d", cfg.Parallelism)
	}
	return nil
}

// campaign translates a resolved config into the engine's terms, plus the
// journal header that pins the campaign identity — so resuming against a
// journal from a different campaign fails loudly instead of merging
// unrelated trial results.
func (cfg *CharacterizeConfig) campaign() (ccfg core.CampaignConfig, meta core.JournalMeta, err error) {
	spec, err := specFor(cfg.Error)
	if err != nil {
		return ccfg, meta, err
	}
	kind, err := kindFor(cfg.Region)
	if err != nil {
		return ccfg, meta, err
	}
	builder, err := NewBuilder(cfg.App, cfg.Size, cfg.Seed)
	if err != nil {
		return ccfg, meta, err
	}
	ccfg = core.CampaignConfig{
		Builder:     builder,
		Spec:        spec,
		Trials:      cfg.Trials,
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
		RunOptions:  cfg.RunOptions,
	}
	meta = core.JournalMeta{
		App:    string(cfg.App),
		Error:  string(cfg.Error),
		Region: string(cfg.Region),
		Trials: cfg.Trials,
		Seed:   cfg.Seed,
		Size:   int64(cfg.Size),
	}
	if kind != 0 {
		ccfg.Filter = inject.KindFilter(kind)
	}
	if cfg.TargetCI > 0 {
		// The stopping rule is part of the campaign identity: a journal
		// resumed under a different rule would replay to a different
		// stop boundary. These fields also flow into the journal's
		// ConfigHash via this meta.
		rule := stats.SequentialStopping{
			TargetHalfWidth: cfg.TargetCI,
			Level:           core.CILevel,
			MinTrials:       cfg.MinTrials,
			MaxTrials:       cfg.Trials,
		}
		ccfg.Planner = core.NewAdaptivePlanner(rule)
		meta.TargetCI, meta.CILevel = rule.TargetHalfWidth, rule.Level
		meta.MinTrials, meta.MaxTrials = rule.MinTrials, rule.MaxTrials
	}
	if cfg.ShardCount > 0 {
		ccfg.Shard = &core.ShardSpec{Index: cfg.ShardIndex, Count: cfg.ShardCount}
		if err := ccfg.Shard.Validate(); err != nil {
			return ccfg, meta, fmt.Errorf("hrmsim: %w", err)
		}
		meta.ShardIndex, meta.ShardCount = cfg.ShardIndex, cfg.ShardCount
	}
	return ccfg, meta, nil
}

// openJournals opens JournalPath as ccfg.Journal (the caller closes it)
// and loads ResumePath into ccfg.Resume. The journal opens first: when
// both name one file, OpenJournal has already restarted a header its
// killed writer tore, and the resume reads that fresh header.
func (cfg *CharacterizeConfig) openJournals(ccfg *core.CampaignConfig, meta core.JournalMeta) (err error) {
	existed := false
	if cfg.JournalPath != "" {
		if ccfg.Journal, existed, err = core.OpenJournal(cfg.JournalPath, meta); err != nil {
			return fmt.Errorf("hrmsim: %w", err)
		}
		defer func() {
			if err != nil {
				ccfg.Journal.Close()
			}
		}()
	}
	if cfg.ResumePath != "" {
		f, err := os.Open(cfg.ResumePath)
		if err != nil {
			return fmt.Errorf("hrmsim: opening resume journal: %w", err)
		}
		m, recs, err := core.ReadJournal(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("hrmsim: reading resume journal %s: %w", cfg.ResumePath, err)
		}
		if err := m.Matches(meta); err != nil {
			return fmt.Errorf("hrmsim: resume journal %s belongs to a different campaign: %w", cfg.ResumePath, err)
		}
		ccfg.Resume = recs
	}
	if ccfg.Journal != nil && !existed {
		// Fresh journal, foreign resume source: copy the resumed
		// records over, in index order, so this journal alone describes
		// the whole campaign.
		for i := 0; i < cfg.Trials; i++ {
			if tr, ok := ccfg.Resume[i]; ok {
				if err := ccfg.Journal.Append(tr); err != nil {
					return fmt.Errorf("hrmsim: copying resumed trials into journal: %w", err)
				}
			}
		}
	}
	return nil
}

// newCharacterization aggregates a finished campaign into the public
// result shape. Shared between a live run (Characterize) and a
// cross-shard merge (MergeShards), so a merged campaign's aggregates go
// through exactly the same arithmetic as a single-process run's.
func newCharacterization(app App, errType ErrorType, region Region, trials int, res *core.CampaignResult) (*Characterization, error) {
	out := &Characterization{
		App:                 app,
		Error:               errType,
		Region:              region,
		Trials:              trials,
		Parallelism:         res.Parallelism,
		Outcomes:            make(map[string]int),
		CrashMinutes:        res.TimesToEffect(core.OutcomeCrash),
		IncorrectMinutes:    res.TimesToEffect(core.OutcomeIncorrect),
		AllIncorrectMinutes: res.AllIncorrectTimes(),
		Interrupted:         res.Interrupted,
		Completed:           res.Completed(),
		Aborted:             res.AbortedCount(),
		Resumed:             res.Resumed,
		Planned:             res.Planned,
	}
	if res.PlanFinal && res.Planned > 0 && res.Planned < res.Requested {
		out.TrialsSaved = res.Requested - res.Planned
	}
	// A finished run whose every trial aborted has no estimate to report;
	// 0 % would read as a measurement.
	if out.Completed == 0 && len(res.Trials) > 0 && !res.Interrupted {
		reasons := map[string]int{}
		for _, tr := range res.Trials {
			reasons[tr.AbortReason]++
		}
		return nil, fmt.Errorf("hrmsim: no trial completed: all %d aborted, by reason %v", len(res.Trials), reasons)
	}
	// The probability estimates need at least one completed trial; an
	// empty shard, or a run interrupted before its first trial completed,
	// reports zeros.
	if out.Completed > 0 {
		crash, err := res.CrashProbability(core.CILevel)
		if err != nil {
			return nil, err
		}
		tol, err := res.ToleratedProbability(core.CILevel)
		if err != nil {
			return nil, err
		}
		mean, max := res.IncorrectPerBillion()
		out.CrashProbability = crash.P
		out.CrashCILow = crash.Lo
		out.CrashCIHigh = crash.Hi
		out.ToleratedProbability = tol.P
		out.IncorrectPerBillion = mean
		out.MaxIncorrectPerBillion = max
	}
	for _, o := range []core.Outcome{
		core.OutcomeMaskedOverwrite, core.OutcomeMaskedLogic,
		core.OutcomeMaskedLatent, core.OutcomeIncorrect, core.OutcomeCrash,
	} {
		out.Outcomes[o.String()] = res.Count(o)
	}
	return out, nil
}

// AccessProfileConfig configures a safe-ratio / recoverability analysis.
type AccessProfileConfig struct {
	// App is the application to profile.
	App App
	// Watchpoints is the number of sampled addresses (default 300; a
	// negative count is an error), split across regions proportionally
	// with a per-region floor.
	Watchpoints int
	// Seed makes sampling deterministic (default 1).
	Seed int64
	// Size selects the workload scale (default SizeMedium).
	Size WorkloadSize
}

// RegionProfile summarizes one region's access behaviour.
type RegionProfile struct {
	Region string `json:"region"`
	// UsedBytes is the region's occupied size.
	UsedBytes int `json:"used_bytes"`
	// Watchpoints is the number of sampled addresses with at least one
	// attributed interval.
	Watchpoints int `json:"watchpoints"`
	// MeanSafeRatio averages the safe ratios (Section III-B): near 1
	// means writes dominate (errors masked by overwrite), near 0 means
	// reads dominate.
	MeanSafeRatio float64 `json:"mean_safe_ratio"`
	// SafeRatios are the per-address ratios (the Fig. 5b samples);
	// empty, never nil, for an unsampled region.
	SafeRatios []float64 `json:"safe_ratios"`
	// ImplicitRecoverable and ExplicitRecoverable are the Table 5
	// fractions of used pages.
	ImplicitRecoverable float64 `json:"implicit_recoverable"`
	ExplicitRecoverable float64 `json:"explicit_recoverable"`
}

// AccessProfileReport is the access-monitoring analysis of one application.
type AccessProfileReport struct {
	App App `json:"app"`
	// WindowMinutes is the observation window in virtual minutes.
	WindowMinutes float64 `json:"window_minutes"`
	// Regions holds one profile per mapped region.
	Regions []RegionProfile `json:"regions"`
}

// AccessProfile prepares the application (core.Prepare at warm-up 0),
// whose one fault-free pass records its full workload under the
// access-monitoring framework, and reports safe ratios and recoverability
// per region (the paper's Sections III-B/III-C measurements) from that
// record.
func AccessProfile(cfg AccessProfileConfig) (*AccessProfileReport, error) {
	if cfg.App == "" {
		return nil, fmt.Errorf("hrmsim: AccessProfileConfig.App is required")
	}
	if cfg.Watchpoints < 0 {
		return nil, fmt.Errorf("hrmsim: watchpoints must be non-negative, got %d", cfg.Watchpoints)
	}
	if cfg.Watchpoints == 0 {
		cfg.Watchpoints = 300
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	builder, err := NewBuilder(cfg.App, cfg.Size, cfg.Seed)
	if err != nil {
		return nil, err
	}
	prepared, err := core.Prepare(builder, 0)
	if err != nil {
		return nil, fmt.Errorf("hrmsim: profiling workload: %w", err)
	}
	rec := prepared.Profile()
	if rec == nil {
		return nil, fmt.Errorf("hrmsim: the prepared %s build kept no access profile", cfg.App)
	}
	var sample []simmem.Addr
	if err := prepared.WithSession(func(sess apps.SnapshotApp) error {
		sample = monitor.Sample(sess.Space(), rand.New(rand.NewSource(cfg.Seed)), cfg.Watchpoints)
		return nil
	}); err != nil {
		return nil, err
	}
	rep := &AccessProfileReport{App: cfg.App, WindowMinutes: rec.Window().Minutes(), Regions: []RegionProfile{}}
	for _, r := range rec.Regions() {
		ratios := rec.SafeRatios(sample, r.Kind)
		p := RegionProfile{
			Region:      r.Kind.String(),
			UsedBytes:   r.Used,
			Watchpoints: len(ratios),
			SafeRatios:  ratios,
		}
		var sum float64
		for _, x := range ratios {
			sum += x
		}
		if len(ratios) > 0 {
			p.MeanSafeRatio = sum / float64(len(ratios))
		}
		rv, err := rec.RecoverabilityOf(r.Base)
		if err != nil {
			return nil, err
		}
		p.ImplicitRecoverable = rv.Implicit
		p.ExplicitRecoverable = rv.Explicit
		rep.Regions = append(rep.Regions, p)
	}
	return rep, nil
}
