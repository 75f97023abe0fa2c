package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/monitor"
	"hrmsim/internal/simmem"
)

// supervisor drives one campaign's worker pool with the resilience
// machinery around it: context cancellation with in-flight draining,
// the per-trial watchdogs (wall-clock deadline and virtual-operation
// budget), bounded retry of transient infrastructure failures, journal
// appends, and resume skipping. The Fig. 2 trial loop itself lives in
// campaign.go (snapshotSession.runTrial); the supervisor only decides
// which trials run, for how long, and what happens when they don't
// finish.
type supervisor struct {
	cfg    CampaignConfig
	golden []uint64
	// profile is the fault-free window's record every worker decides from
	// (read-only; nil: every trial simulates).
	profile        *monitor.Profile
	par            int
	sb             apps.SnapshotBuilder
	maxRetries     int
	statusInterval time.Duration
	m              *campaignMetrics

	// plannerMu serializes all TrialPlanner calls (the planner needs no
	// locking of its own); resultEv wakes the dispatch loop out of
	// PlanWait after a result has been fed back. Lock order: plannerMu
	// before progressMu, never the reverse.
	plannerMu sync.Mutex
	planner   TrialPlanner
	resultEv  chan struct{}
	adaptive  bool // planner is not the fixed plan: surface CI/budget fields

	// progressMu serializes the progress/status accounting below; the
	// Progress and StatusSink hooks are both called under it.
	progressMu sync.Mutex
	start      time.Time
	total      int
	done       int
	lo, hi     int
	completed  int
	aborted    int
	resumed    int
	counts     map[Outcome]int
	lastStatus time.Time
	planned    int     // planner's current campaign-level trial budget
	planFinal  bool    // the budget is the plan's last word
	halfWidth  float64 // latest CI half-width verdict (adaptive only)
}

// run executes the campaign: pre-merges resumed results, dispatches the
// planner's indices to par workers, and stops dispatching (draining
// in-flight trials) when ctx is cancelled or the planner's stopping
// rule fires. Worker 0 starts on first, the session the fault-free pass
// left ready (nil: it builds its own).
func (s *supervisor) run(ctx context.Context, first *snapshotSession) (*CampaignResult, error) {
	cfg := s.cfg
	results := make([]TrialResult, cfg.Trials)
	have := make([]bool, cfg.Trials)

	// An unsharded campaign owns every index; a shard owns only its
	// contiguous slice, and resume records outside it are ignored (they
	// belong to sibling shards).
	lo, hi := 0, cfg.Trials
	if cfg.Shard != nil {
		lo, hi = cfg.Shard.Range(cfg.Trials)
	}
	resumed := 0
	s.counts = make(map[Outcome]int)
	var resumedInRange map[int]TrialResult
	for i, tr := range cfg.Resume {
		if i < lo || i >= hi {
			continue
		}
		tr.Index = i
		results[i] = tr
		have[i] = true
		resumed++
		if resumedInRange == nil {
			resumedInRange = make(map[int]TrialResult)
		}
		resumedInRange[i] = tr
		s.m.recordResumeSkip()
		// Resumed trials count toward the shard's dispositions so the
		// status record's totals always describe the whole range.
		if tr.Disposition == DispositionCompleted {
			s.completed++
			s.counts[tr.Outcome]++
		} else {
			s.aborted++
		}
	}

	// The planner decides which indices run and when the campaign
	// stops; the default fixed plan is bit-identical to the classic
	// "every owned index, ascending" engine. Resumed results replay
	// through the planner so an adaptive plan continues exactly where
	// the interrupted run stopped.
	planner := cfg.Planner
	if planner == nil {
		planner = NewFixedPlanner()
	}
	if err := planner.Start(lo, hi, cfg.Trials, resumedInRange); err != nil {
		return nil, err
	}
	_, fixed := planner.(*FixedPlanner)
	s.planner = planner
	s.adaptive = !fixed
	s.resultEv = make(chan struct{}, 1)
	s.halfWidth = 1

	s.start = time.Now()
	s.lo, s.hi = lo, hi
	s.done = resumed
	s.resumed = resumed
	total, final := planner.Budget()
	s.notePlan(planner.TakeDecisions(), total, final)

	// Announce the shard before the first trial finishes: observers learn
	// the shard exists (and how much is resumed) even if trials are slow.
	if cfg.StatusSink != nil {
		s.progressMu.Lock()
		s.emitStatusLocked(true, false)
		s.progressMu.Unlock()
	}

	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < s.par; w++ {
		// Each worker keeps one instance alive across all the trials it
		// drains; the build + warmup cost is paid once per worker instead
		// of once per trial.
		sess := first
		first = nil
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				start := time.Now()
				var tr TrialResult
				var ts trialStats
				tr, ts, sess = s.runOne(sess, i)
				results[i] = tr
				have[i] = true
				s.journalTrial(tr)
				s.observePlanner(tr)
				s.finished(tr, ts, time.Since(start))
			}
		}()
	}
	interrupted := false
dispatch:
	for {
		s.plannerMu.Lock()
		i, state := planner.Next()
		s.plannerMu.Unlock()
		switch state {
		case PlanDone:
			break dispatch
		case PlanWait:
			// The planner is holding at an evaluation boundary; an
			// in-flight trial's Observe will either advance it or stop
			// the campaign, and signals resultEv either way.
			select {
			case <-s.resultEv:
			case <-ctx.Done():
				interrupted = true
				break dispatch
			}
		default:
			select {
			case idxCh <- i:
			case <-ctx.Done():
				interrupted = true
				break dispatch
			}
		}
	}
	close(idxCh)
	wg.Wait()
	if !interrupted && ctx.Err() != nil {
		// Cancellation landed after the last dispatch; the result is
		// complete but the caller's intent to stop is still recorded.
		interrupted = true
	}

	// The final status record: Running=false marks the shard done (or
	// interrupted), so a dead campaign directory still renders.
	if cfg.StatusSink != nil {
		s.progressMu.Lock()
		s.emitStatusLocked(false, interrupted)
		s.progressMu.Unlock()
	}

	s.plannerMu.Lock()
	finalTotal, finalDone := planner.Budget()
	s.plannerMu.Unlock()
	planned, planFinal := cfg.Trials, true
	if lo == 0 && hi == cfg.Trials {
		// Unsharded: the planner's budget is the campaign's. A shard's
		// budget is only its slice, and shards run fixed plans anyway.
		planned, planFinal = finalTotal, finalDone
	}
	res := &CampaignResult{
		App:         cfg.Builder.AppName(),
		Spec:        cfg.Spec,
		Golden:      s.golden,
		Requested:   cfg.Trials,
		Planned:     planned,
		PlanFinal:   planFinal,
		Resumed:     resumed,
		Interrupted: interrupted,
		Parallelism: s.par,
		counts:      make(map[Outcome]int),
	}
	for i := 0; i < cfg.Trials; i++ {
		if !have[i] {
			continue
		}
		res.Trials = append(res.Trials, results[i])
		if results[i].Disposition == DispositionCompleted {
			res.counts[results[i].Outcome]++
		}
	}
	return res, nil
}

// runOne runs trial i with bounded retry of infrastructure failures.
// It never returns an error: a trial that keeps failing is recorded as
// aborted (AbortReasonWorkerError) and the campaign moves on.
func (s *supervisor) runOne(sess *snapshotSession, i int) (TrialResult, trialStats, *snapshotSession) {
	backoff := DefaultRetryBackoff
	for attempt := 0; ; attempt++ {
		var tr TrialResult
		var ts trialStats
		var err error
		tr, ts, sess, err = s.attempt(sess, i)
		if err == nil {
			tr.Index = i
			return tr, ts, sess
		}
		if attempt >= s.maxRetries {
			detail := fmt.Sprintf("%v (after %d attempts)", err, attempt+1)
			s.m.recordAbort(AbortReasonWorkerError)
			return TrialResult{
				Index:       i,
				Disposition: DispositionAborted,
				AbortReason: AbortReasonWorkerError,
				AbortDetail: detail,
			}, trialStats{}, nil
		}
		// Transient failure (a build or restore hiccup): the failed
		// attempt returned no session, so the next one rebuilds the
		// worker's instance from scratch and tries the same trial again.
		// The per-trial rng depends only on (Seed, i), so a retried
		// trial is bit-identical to a first-try success.
		s.m.recordRetry()
		time.Sleep(backoff)
		backoff *= 2
	}
}

// attempt runs one attempt of trial i, under the wall-clock watchdog
// when configured. On deadline the trial goroutine is abandoned (it
// holds only its own app instance) and the worker's session is
// discarded with it, since the wedged goroutine may still be mutating
// it.
func (s *supervisor) attempt(sess *snapshotSession, i int) (TrialResult, trialStats, *snapshotSession, error) {
	if s.cfg.TrialTimeout <= 0 {
		return s.execute(sess, i)
	}
	type trialDone struct {
		tr   TrialResult
		ts   trialStats
		sess *snapshotSession
		err  error
	}
	ch := make(chan trialDone, 1)
	go func() {
		tr, ts, out, err := s.execute(sess, i)
		ch <- trialDone{tr, ts, out, err}
	}()
	timer := time.NewTimer(s.cfg.TrialTimeout)
	defer timer.Stop()
	select {
	case d := <-ch:
		return d.tr, d.ts, d.sess, d.err
	case <-timer.C:
		detail := fmt.Sprintf("trial exceeded the %v wall-clock deadline", s.cfg.TrialTimeout)
		s.m.recordAbort(AbortReasonDeadline)
		return TrialResult{
			Index:       i,
			Disposition: DispositionAborted,
			AbortReason: AbortReasonDeadline,
			AbortDetail: detail,
		}, trialStats{}, nil, nil
	}
}

// execute runs one attempt of trial i on the worker's session, building
// it first when the worker has none, and converts the op-budget
// watchdog's abort panic into an aborted result. A failed attempt
// returns no session.
func (s *supervisor) execute(sess *snapshotSession, i int) (tr TrialResult, ts trialStats, out *snapshotSession, err error) {
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(*trialAbort)
			if !ok {
				panic(r)
			}
			// The app unwound mid-request; snapshot restore rolls any
			// partial mutation back before the next trial, so the
			// session stays usable.
			tr = TrialResult{
				Index:       i,
				Disposition: DispositionAborted,
				AbortReason: ab.reason,
				AbortDetail: ab.detail,
			}
			ts, out, err = trialStats{}, sess, nil
			s.m.recordAbort(ab.reason)
		}
	}()
	if sess == nil {
		sess, err = newSnapshotSession(s.sb, s.cfg, s.golden)
		if err != nil {
			return TrialResult{}, trialStats{}, nil, err
		}
	}
	tr, ts, err = sess.runTrial(s.cfg, s.golden, s.profile, i, nil)
	if err != nil {
		return TrialResult{}, trialStats{}, nil, err
	}
	return tr, ts, sess, nil
}

// journalTrial appends one finished trial to the journal, if any.
// Journal write errors must not corrupt the campaign's science, so they
// are sticky on the Journal and surfaced by its Close/Err — the trials
// keep running.
func (s *supervisor) journalTrial(tr TrialResult) {
	if s.cfg.Journal == nil {
		return
	}
	if err := s.cfg.Journal.Append(tr); err == nil {
		s.m.recordJournal()
	}
}

// observePlanner feeds one finished trial back to the planner, records
// any stop/continue verdicts it produced, and wakes the dispatch loop
// (which may be parked in PlanWait at an evaluation boundary).
func (s *supervisor) observePlanner(tr TrialResult) {
	s.plannerMu.Lock()
	s.planner.Observe(tr)
	decs := s.planner.TakeDecisions()
	total, final := s.planner.Budget()
	s.plannerMu.Unlock()
	s.notePlan(decs, total, final)
	select {
	case s.resultEv <- struct{}{}:
	default: // a wakeup is already pending; Next() re-reads planner state
	}
}

// notePlan journals and meters drained planner decisions and refreshes
// the budget-derived progress state. decs must already be drained (the
// caller holds no planner lock here).
func (s *supervisor) notePlan(decs []PlannerDecision, total int, final bool) {
	for _, d := range decs {
		if s.cfg.Journal != nil {
			if err := s.cfg.Journal.AppendDecision(d); err == nil {
				s.m.recordJournal()
			}
		}
		s.m.recordDecision(d, s.cfg.Trials)
	}
	s.progressMu.Lock()
	s.total = total
	s.planFinal = final
	s.planned = s.cfg.Trials
	if s.lo == 0 && s.hi == s.cfg.Trials {
		s.planned = total
	}
	if n := len(decs); n > 0 {
		s.halfWidth = decs[n-1].HalfWidth
	}
	s.progressMu.Unlock()
}

// finished records metrics, progress, and heartbeat accounting for one
// finished trial (completed or aborted).
func (s *supervisor) finished(tr TrialResult, ts trialStats, wall time.Duration) {
	if tr.Disposition == DispositionCompleted {
		s.m.recordTrial(tr, ts, wall)
	}
	if s.cfg.Progress == nil && s.cfg.StatusSink == nil {
		return
	}
	s.progressMu.Lock()
	s.done++
	if tr.Disposition == DispositionCompleted {
		s.completed++
		s.counts[tr.Outcome]++
	} else {
		s.aborted++
	}
	if s.cfg.Progress != nil {
		info := ProgressInfo{
			Done:    s.done,
			Total:   s.total,
			Elapsed: time.Since(s.start),
			// Open-ended plan: Total is the planner's current budget
			// estimate, not a fixed size, so the ETA extrapolates to
			// the next evaluation boundary rather than the old fixed N.
			Adaptive: s.adaptive && !s.planFinal,
		}
		var eta float64
		info.TrialsPerSec, eta = s.rateLocked(info.Elapsed.Seconds())
		info.ETA = time.Duration(eta * float64(time.Second))
		s.cfg.Progress(info)
	}
	// Heartbeat, throttled off the hot path: at most one record per
	// statusInterval, no matter how fast trials finish.
	if s.cfg.StatusSink != nil && time.Since(s.lastStatus) >= s.statusInterval {
		s.emitStatusLocked(true, false)
	}
	s.progressMu.Unlock()
}

// rateLocked returns the live trial rate and the projected seconds
// remaining. Resumed trials count toward done but cost this process no
// time, so the rate is over the trials run here; dividing all of done by
// the elapsed time would overstate it and shrink the ETA.
func (s *supervisor) rateLocked(elapsedSeconds float64) (perSec, etaSeconds float64) {
	if elapsedSeconds > 0 {
		perSec = float64(s.done-s.resumed) / elapsedSeconds
	}
	if rem := s.total - s.done; rem > 0 && perSec > 0 {
		etaSeconds = float64(rem) / perSec
	}
	return perSec, etaSeconds
}

// emitStatusLocked assembles and delivers one ShardStatus under
// progressMu. The supervisor fills the campaign-engine fields; identity
// fields (ConfigHash, Campaign) are the status sink's to stamp.
func (s *supervisor) emitStatusLocked(running, interrupted bool) {
	st := ShardStatus{
		ShardCount: 1,
		ShardProgress: ShardProgress{
			TrialLo:        s.lo,
			TrialHi:        s.hi,
			Done:           s.done,
			Total:          s.total,
			Completed:      s.completed,
			Aborted:        s.aborted,
			Resumed:        s.resumed,
			Outcomes:       make(map[string]int, len(s.counts)),
			ElapsedSeconds: time.Since(s.start).Seconds(),
			Running:        running,
			Interrupted:    interrupted,
		},
		WallUnixNanos: time.Now().UnixNano(),
	}
	if s.cfg.Shard != nil {
		st.ShardIndex, st.ShardCount = s.cfg.Shard.Index, s.cfg.Shard.Count
	}
	if s.adaptive {
		st.Adaptive = true
		st.CIHalfWidth = s.halfWidth
		st.PlannedTrials = s.planned
		st.PlanFinal = s.planFinal
		if saved := s.cfg.Trials - s.planned; s.planFinal && saved > 0 {
			st.TrialsSaved = saved
		}
	}
	for o, n := range s.counts {
		st.Outcomes[o.String()] = n
	}
	var eta float64
	st.TrialsPerSec, eta = s.rateLocked(st.ElapsedSeconds)
	if running {
		st.EtaSeconds = eta
	}
	if s.m != nil {
		snap := s.m.reg.Snapshot()
		st.Metrics = &snap
	}
	s.lastStatus = time.Now()
	s.cfg.StatusSink(st)
}

// trialAbort is the sentinel the in-trial watchdogs panic with; it
// unwinds through serveGuarded (which re-panics it rather than calling
// it an application crash) and is recovered in supervisor.execute.
type trialAbort struct {
	reason string
	detail string
}

// opBudgetWatchdog aborts a trial that performs more simulated memory
// operations than budgeted — the deterministic complement to the
// wall-clock deadline. It panics with a *trialAbort sentinel from
// inside the access-notification path; serveGuarded re-panics it and
// supervisor.execute converts it into an aborted disposition.
type opBudgetWatchdog struct {
	remaining int64
	budget    int64
}

var _ simmem.AccessObserver = (*opBudgetWatchdog)(nil)

// ObserveAccess implements simmem.AccessObserver.
func (w *opBudgetWatchdog) ObserveAccess(simmem.AccessEvent) {
	w.remaining--
	if w.remaining < 0 {
		panic(&trialAbort{
			reason: AbortReasonOpBudget,
			detail: fmt.Sprintf("trial exceeded the %d-operation budget", w.budget),
		})
	}
}
