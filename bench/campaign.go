package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hrmsim"
	"hrmsim/internal/apps"
	"hrmsim/internal/apps/websearch"
	"hrmsim/internal/core"
	"hrmsim/internal/ecc"
	"hrmsim/internal/faults"
	"hrmsim/internal/inject"
	"hrmsim/internal/obsv"
	"hrmsim/internal/stats"
)

// campaign is a camp-* workload: one application × codec × error type,
// characterized by running whole campaigns back to back for the run's
// length. Campaign i uses seed splitmix(-seed, i); the builder seed stays
// 1, so every run characterizes the same application build.
type campaign struct {
	name, why string
	app       hrmsim.App
	size      hrmsim.WorkloadSize
	secded    bool // SEC-DED on private+heap+stack (websearch only)
	spec      faults.Spec
	// warmNum/warmDen is the share of the request stream served before
	// injection.
	warmNum, warmDen int
	// rule is the adaptive stopping rule; a zero TargetHalfWidth means
	// the fixed plan (every one of trials runs).
	rule    stats.SequentialStopping
	trials  int
	journal bool
}

const builderSeed = 1

func (c campaign) newBuilder() (apps.SnapshotBuilder, error) {
	b, err := hrmsim.NewBuilder(c.app, c.size, builderSeed)
	if err != nil {
		return nil, err
	}
	if c.secded {
		// Take the facade's geometry for the size and add the codec, so
		// the sizes are defined in one place.
		cfg := b.(*websearch.Builder).Config()
		cfg.PrivateCodec, cfg.HeapCodec, cfg.StackCodec = ecc.NewSECDED(), ecc.NewSECDED(), ecc.NewSECDED()
		if b, err = websearch.NewBuilder(cfg); err != nil {
			return nil, err
		}
	}
	sb, ok := b.(apps.SnapshotBuilder)
	if !ok {
		return nil, fmt.Errorf("%s builder has no snapshot lifecycle", b.AppName())
	}
	return sb, nil
}

// sized applies a -smoke trial cap.
func (c campaign) sized(sc scale) campaign {
	if sc.trialCap > 0 && c.trials > sc.trialCap {
		c.trials = sc.trialCap
		if c.adaptive() {
			c.rule.MaxTrials = sc.trialCap
			c.rule.MinTrials = min(c.rule.MinTrials, sc.trialCap)
		}
	}
	return c
}

func (c campaign) adaptive() bool { return c.rule.TargetHalfWidth > 0 }

func (c campaign) warmup(requests int) int { return requests * c.warmNum / c.warmDen }

// config is the campaign as the engine sees it. The planner is stateful,
// so every run gets a fresh one.
func (c campaign) config(b apps.Builder, golden []uint64, requests int, seed int64, par int) core.CampaignConfig {
	cfg := core.CampaignConfig{
		Builder:     b,
		Spec:        c.spec,
		Trials:      c.trials,
		Seed:        seed,
		Warmup:      c.warmup(requests),
		Parallelism: par,
		Golden:      golden,
	}
	if c.adaptive() {
		cfg.Planner = core.NewAdaptivePlanner(c.rule)
	}
	return cfg
}

func (c campaign) journalMeta(seed int64, warmup int) core.JournalMeta {
	return core.JournalMeta{
		App: string(c.app), Error: c.spec.String(), Trials: c.trials,
		Seed: seed, Size: int64(c.size), Warmup: warmup,
	}
}

// run executes one campaign the way a user would: with a journal where
// the workload has one (opened and closed inside the call, so its cost is
// part of the answer).
func (c campaign) run(cfg core.CampaignConfig, journalPath string) (*core.CampaignResult, error) {
	if c.journal {
		_ = os.Remove(journalPath)
		j, _, err := core.OpenJournal(journalPath, c.journalMeta(cfg.Seed, cfg.Warmup))
		if err != nil {
			return nil, err
		}
		cfg.Journal = j
		res, err := core.RunContext(context.Background(), cfg)
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		return res, err
	}
	return core.RunContext(context.Background(), cfg)
}

func summarize(seed int64, res *core.CampaignResult) campaignStats {
	s := campaignStats{
		Seed:      seed,
		Planned:   res.Planned,
		Completed: res.Completed(),
		Aborted:   res.AbortedCount(),
		Outcomes:  map[string]int{},
	}
	for _, o := range core.Outcomes() {
		if n := res.Count(o); n > 0 {
			s.Outcomes[o.String()] = n
		}
	}
	for _, tr := range res.Trials {
		s.Requests += int64(tr.Requests)
		s.Incorrect += int64(tr.Incorrect)
	}
	return s
}

// session is what one campaign worker sets up before its first trial: a
// built instance, warmed up and snapshotted.
func (c campaign) session(b apps.SnapshotBuilder, golden []uint64) (apps.SnapshotApp, error) {
	app, err := b.BuildSnapshot()
	if err != nil {
		return nil, err
	}
	for q := 0; q < c.warmup(len(golden)); q++ {
		resp, err := app.Serve(q)
		if err != nil {
			return nil, fmt.Errorf("warm-up request %d: %w", q, err)
		}
		if resp.Digest != golden[q] {
			return nil, fmt.Errorf("warm-up request %d differs from the golden run", q)
		}
	}
	return app, app.Snapshot()
}

// setUp is everything a campaign pays before its first trial, timed as
// setup_s: the builder (synthetic data), the golden run, one session.
func (c campaign) setUp() (time.Duration, error) {
	t0 := time.Now()
	b, err := c.newBuilder()
	if err != nil {
		return 0, err
	}
	golden, err := core.GoldenRun(b)
	if err != nil {
		return 0, err
	}
	_, err = c.session(b, golden)
	return time.Since(t0), err
}

func (c campaign) endToEnd(o options) (*result, error) {
	c = c.sized(o.sc)
	r := newResult(c.name, false)

	b, err := c.newBuilder()
	if err != nil {
		return nil, err
	}
	requests := 0
	if a, err := b.Build(); err != nil {
		return nil, err
	} else {
		requests = a.NumRequests()
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	journalPath := filepath.Join(o.outDir, c.name+".journal.jsonl")
	defer os.Remove(journalPath)

	var walls, rates, cpus, setups []float64
	var measured, last time.Duration
	for i := 0; ; i++ {
		if o.campaigns > 0 {
			if i >= o.campaigns {
				break
			}
		} else if i >= o.sc.minCampaigns && measured+last > o.budget {
			// Stop when the next campaign would overrun the run length.
			break
		}
		// One batch of set-up samples before each campaign rather than
		// all of them up front: the host's speed drifts over tens of
		// seconds, and setup_s should see the same stretch of it as the
		// other metrics do.
		if err := sampleSetUp(&setups, o.sc.setupSlice, c.setUp); err != nil {
			return nil, err
		}
		seed := splitmix(o.seed, i)
		cpu0 := cpuSeconds()
		t0 := time.Now()
		// Golden nil: the campaign pays for its own golden run, as a
		// user asking one question of one build does.
		res, err := c.run(c.config(b, nil, requests, seed, 2), journalPath)
		last = time.Since(t0)
		cpu := cpuSeconds() - cpu0
		measured += last
		if err != nil {
			return nil, fmt.Errorf("campaign %d: %w", i, err)
		}
		st := summarize(seed, res)
		r.Exact.Campaigns = append(r.Exact.Campaigns, st)
		if err := st.invariants(); err != nil {
			r.problemf("campaign %d: %v", i, err)
		}
		if res.Interrupted || !res.PlanFinal {
			r.problemf("campaign %d: interrupted=%v plan_final=%v", i, res.Interrupted, res.PlanFinal)
		}
		r.Attempted += int64(st.Planned)
		r.Failed += int64(st.Aborted)
		walls = append(walls, last.Seconds()*1e3)
		rates = append(rates, float64(st.Completed)/last.Seconds())
		cpus = append(cpus, cpu*1e6/float64(max(st.Completed, 1)))
	}

	// A campaign has one time, so the tail is taken over blocks of
	// consecutive campaigns: the slowest answer of each.
	worst := blockMax(walls, o.sc.tailBlock)
	r.Series = map[string][]float64{"campaign_wall_ms": walls, "campaign_cpu_us_per_trial": cpus}
	r.set("answer_ms", quietLow(walls))
	r.set("answer_tail_ms", quietLow(worst))
	r.set("work_per_s", quietHigh(rates))
	r.set("cpu_us_per_work", quietLow(cpus))
	r.set("setup_s", median(setups))
	r.notef("%d campaigns measured (answer median %.1f ms, max %.1f ms), %d blocks of %d for the tail; set-up sampled %d times (max %.4f s)",
		len(walls), median(walls), maxOf(walls), len(worst), o.sc.tailBlock, len(setups), maxOf(setups))
	return r, nil
}

// reenactment is what re-running trials from outside the engine counted.
type reenactment struct {
	trials, requests, crashes int64
	dirtyPages                int64
	loads, stores, corrected  uint64
	fastLoads                 uint64
	taintedWordsEnd           int64
	// Time in each of the three calls, by coarse timers that run with
	// or without the recorder: per-request spans cost about as much as a
	// kvstore request itself, so phase figures come from the untraced
	// pass and the spans only feed the spans file.
	restore, inject, serve time.Duration
	wall                   time.Duration
	infraErr               error
}

// reenact runs n trials of the Fig. 2 loop through the layers' public
// functions — Reset, inject.Random, Serve — recording a span around each
// call. The engine's own per-trial seed derivation is private, so these
// trials draw from splitmix(seed, i): the same distribution of trials as
// the engine runs, not the same trials.
func (c campaign) reenact(rec *recorder, app apps.SnapshotApp, golden []uint64, seed int64, n int) reenactment {
	var st reenactment
	as := app.Space()
	warm := c.warmup(len(golden))
	start := time.Now()
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(splitmix(seed, i)))
		tid := rec.begin("core.trial", 0, i)

		id := rec.begin("simmem.restore", tid, i)
		t0 := time.Now()
		dirty, err := app.Reset()
		st.restore += time.Since(t0)
		rec.end(id)
		if err != nil {
			st.infraErr = err
			return st
		}
		st.dirtyPages += int64(dirty)
		// Reset rolls the counters back to the snapshot's, so the
		// trial's own traffic is the difference from here.
		base, fast0 := as.Counters(), as.FastPathLoads()

		id = rec.begin("inject.random", tid, i)
		t0 = time.Now()
		_, err = inject.Random(as, rng, c.spec, nil)
		st.inject += time.Since(t0)
		rec.end(id)
		if err != nil {
			st.infraErr = err
			return st
		}

		sid := rec.begin("apps.serve", tid, i)
		t0 = time.Now()
		for q := warm; q < len(golden); q++ {
			rid := rec.begin("apps.request", sid, i)
			crashed, err := serveOnce(app, q)
			rec.end(rid)
			if err != nil {
				st.infraErr = err
				return st
			}
			if crashed {
				st.crashes++
				break
			}
			st.requests++
		}
		st.serve += time.Since(t0)
		rec.end(sid)

		end := as.Counters()
		st.loads += end.Loads - base.Loads
		st.stores += end.Stores - base.Stores
		st.corrected += end.Corrected - base.Corrected
		st.fastLoads += as.FastPathLoads() - fast0
		_, words := as.TaintStats()
		st.taintedWordsEnd += int64(words)
		st.trials++
		rec.end(tid)
	}
	st.wall = time.Since(start)
	return st
}

// serveOnce serves one request, turning a crash-worthy error or a panic
// in application code (a corrupted index) into crashed=true the way the
// engine does; any other error is the harness failing.
func serveOnce(app apps.App, q int) (crashed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			crashed, err = true, nil
		}
	}()
	if _, err := app.Serve(q); err != nil {
		if apps.IsCrash(err) {
			return true, nil
		}
		return false, fmt.Errorf("request %d: %w", q, err)
	}
	return false, nil
}

func (c campaign) traced(o options) (*result, error) {
	c = c.sized(o.sc)
	r := newResult(c.name, true)
	rec := newRecorder("trial")
	r.Spans = rec

	b, err := c.newBuilder()
	if err != nil {
		return nil, err
	}

	id := rec.begin("core.golden", 0, -1)
	golden, err := core.GoldenRun(b)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	r.set("core.golden_ms", spanMs(rec, id))

	id = rec.begin("core.session", 0, -1)
	app, err := c.session(b, golden)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	sessionMs := spanMs(rec, id)
	r.set("core.session_ms", sessionMs)

	id = rec.begin("simmem.snapshot", 0, -1)
	err = app.Snapshot()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	r.set("simmem.snapshot_ms", spanMs(rec, id))

	// The engine itself, on campaign 0 of the end-to-end pass: serial,
	// two workers, and serial with a metrics registry attached.
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	journalPath := filepath.Join(o.outDir, c.name+".trace-journal.jsonl")
	defer os.Remove(journalPath)
	seed := splitmix(o.seed, 0)
	engine := func(par int, reg *obsv.Registry) (*core.CampaignResult, time.Duration, error) {
		cfg := c.config(b, golden, len(golden), seed, par)
		cfg.Metrics = reg
		t0 := time.Now()
		res, err := c.run(cfg, journalPath)
		return res, time.Since(t0), err
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res, serial, err := engine(1, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	_, parallel, err := engine(2, nil)
	if err != nil {
		return nil, err
	}
	_, metered, err := engine(1, obsv.NewRegistry())
	if err != nil {
		return nil, err
	}
	st := summarize(seed, res)
	if err := st.invariants(); err != nil {
		r.problemf("engine run: %v", err)
	}
	n := float64(len(res.Trials))
	runUs := float64(serial.Microseconds()) / n
	r.set("core.run_us_per_trial", runUs)
	r.set("core.par2_speedup", serial.Seconds()/parallel.Seconds())
	r.set("obsv.metrics_overhead_ratio", metered.Seconds()/serial.Seconds())
	r.set("core.trials_to_answer", float64(res.Planned))
	r.set("core.alloc_bytes_per_trial", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	r.set("core.allocs_per_trial", float64(m1.Mallocs-m0.Mallocs)/n)
	r.set("core.aborted_trials", float64(st.Aborted))
	share := func(o core.Outcome) float64 { return float64(res.Count(o)) / float64(max(st.Completed, 1)) }
	r.set("core.outcome.crash_ratio", share(core.OutcomeCrash))
	r.set("core.outcome.incorrect_ratio", share(core.OutcomeIncorrect))
	r.set("core.outcome.masked_overwrite_ratio", share(core.OutcomeMaskedOverwrite))
	r.set("core.outcome.masked_logic_ratio", share(core.OutcomeMaskedLogic))
	r.set("core.outcome.masked_latent_ratio", share(core.OutcomeMaskedLatent))
	r.Attempted = int64(st.Planned)
	r.Failed = int64(st.Aborted)

	// Journal and fold, on the engine run's own trial records.
	_ = os.Remove(journalPath)
	j, _, err := core.OpenJournal(journalPath, c.journalMeta(seed, c.warmup(len(golden))))
	if err != nil {
		return nil, err
	}
	byIndex := make(map[int]core.TrialResult, len(res.Trials))
	var appending time.Duration
	jid := rec.begin("core.journal", 0, -1)
	for _, tr := range res.Trials {
		id := rec.begin("core.journal_append", jid, tr.Index)
		t0 := time.Now()
		err := j.Append(tr)
		appending += time.Since(t0)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		byIndex[tr.Index] = tr
	}
	rec.end(jid)
	if err := j.Close(); err != nil {
		return nil, err
	}
	id = rec.begin("core.fold", 0, -1)
	folded := core.ResultFromTrials(res.App, c.spec, len(res.Trials), byIndex)
	rec.end(id)
	if folded.Completed() != st.Completed {
		r.problemf("fold: %d completed trials, engine reported %d", folded.Completed(), st.Completed)
	}
	r.set("core.fold_us_per_trial", spanMs(rec, id)*1e3/n)
	r.set("core.journal_append_us", float64(appending.Nanoseconds())/1e3/n)

	// The trial loop re-enacted from outside, untraced then traced.
	plain := c.reenact(nil, app, golden, o.seed, o.sc.traceTrials)
	if plain.infraErr != nil {
		return nil, plain.infraErr
	}
	re := c.reenact(rec, app, golden, o.seed, o.sc.traceTrials)
	if re.infraErr != nil {
		return nil, re.infraErr
	}
	r.set("bench.trace_overhead_ratio", re.wall.Seconds()/plain.wall.Seconds())

	t := float64(plain.trials)
	perTrialUs := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / t }
	r.set("simmem.restore_us", perTrialUs(plain.restore))
	r.set("inject.random_us", perTrialUs(plain.inject))
	r.set("apps.serve_us_per_trial", perTrialUs(plain.serve))
	// A crashing request is served too, up to the crash.
	r.set("apps.serve_us_per_request", float64(plain.serve.Nanoseconds())/1e3/float64(max(plain.requests+plain.crashes, 1)))
	// What the engine adds around the three calls: classification,
	// supervisor dispatch, planner, journal, metric fold. The serial
	// run's one session build is not per-trial work.
	r.set("core.harness_us_per_trial", runUs-sessionMs*1e3/n-perTrialUs(plain.restore+plain.inject+plain.serve))
	r.set("apps.requests_per_trial", float64(re.requests)/t)
	r.set("apps.crash_exit_ratio", float64(re.crashes)/t)
	r.set("simmem.restore_dirty_pages", float64(re.dirtyPages)/t)
	r.set("simmem.loads_per_trial", float64(re.loads)/t)
	r.set("simmem.stores_per_trial", float64(re.stores)/t)
	r.set("simmem.fastpath_load_ratio", float64(re.fastLoads)/float64(max(re.loads, 1)))
	r.set("simmem.tainted_words_end", float64(re.taintedWordsEnd)/t)

	r.Exact.Traced = map[string]int64{
		"engine.planned":      int64(st.Planned),
		"engine.completed":    int64(st.Completed),
		"engine.requests":     st.Requests,
		"engine.incorrect":    st.Incorrect,
		"reenact.trials":      re.trials,
		"reenact.requests":    re.requests,
		"reenact.crashes":     re.crashes,
		"reenact.dirty_pages": re.dirtyPages,
		"reenact.loads":       int64(re.loads),
		"reenact.stores":      int64(re.stores),
		"reenact.corrected":   int64(re.corrected),
	}
	for name, count := range st.Outcomes {
		r.Exact.Traced["engine.outcome."+name] = int64(count)
	}
	if plain.loads != re.loads || plain.stores != re.stores || plain.requests != re.requests {
		r.problemf("re-enactment is not deterministic: untraced %d loads/%d stores/%d requests, traced %d/%d/%d",
			plain.loads, plain.stores, plain.requests, re.loads, re.stores, re.requests)
	}
	r.notef("engine: %d trials serial %.3f s, 2 workers %.3f s; %d trials re-enacted", len(res.Trials),
		serial.Seconds(), parallel.Seconds(), re.trials)
	return r, nil
}

func spanMs(rec *recorder, id int) float64 {
	s := rec.spans[id-1]
	return float64(s.End-s.Start) / 1e6
}
