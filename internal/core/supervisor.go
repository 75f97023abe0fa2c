package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/monitor"
	"hrmsim/internal/simmem"
	"hrmsim/internal/stats"
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
	profile *monitor.Profile
	par     int
	sb      apps.SnapshotBuilder
	m       *campaignMetrics
	// adaptive selects the adaptive plan, run under rule (clamped to
	// the campaign size); otherwise the fixed plan runs.
	adaptive bool
	rule     stats.SequentialStopping

	// progressMu serializes the progress accounting below; the Progress
	// hook is called under it.
	progressMu sync.Mutex
	start      time.Time
	total      int // the plan's current extent: the segment end, or the owned range
	done       int
	lo, hi     int
	completed  int
	aborted    int
	resumed    int
	counts     map[Outcome]int
	planFinal  bool    // total is the plan's last word
	halfWidth  float64 // latest CI half-width verdict (adaptive only)
}

// run executes the campaign: pre-merges resumed results, then runs the
// plan segment by segment on par workers. The fixed plan is one
// segment, the owned range; an adaptive plan's segments end at the
// stopping rule's boundaries. For each segment run sends every owned
// index without a result to the pool, waits for the segment's trials,
// and, on the adaptive plan, evaluates the rule over the complete
// prefix to stop or open the next segment. Cancellation stops the
// dispatch and drains the in-flight trials. Worker 0 starts on first,
// the session the fault-free pass left ready (nil: it builds its own).
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
	s.counts = make(map[Outcome]int)
	for i, tr := range cfg.Resume {
		if i < lo || i >= hi {
			continue
		}
		tr.Index = i
		results[i] = tr
		have[i] = true
		s.resumed++
		s.m.recordResumeSkip()
		// Resumed trials count toward the shard's dispositions so the
		// progress record's totals always describe the whole range.
		s.tally(tr)
	}

	s.start = time.Now()
	s.lo, s.hi = lo, hi
	// end closes the current segment.
	end := hi
	if s.adaptive {
		end = s.rule.FirstBoundary()
	}
	s.total, s.planFinal, s.halfWidth = end-lo, !s.adaptive, 1

	idxCh := make(chan int)
	var wg, pending sync.WaitGroup
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
				s.finished(tr, ts, time.Since(start))
				pending.Done()
			}
		}()
	}
	// ran: this run has dispatched a trial of its own. Until then every
	// verdict replays the resumed records, and the initial progress
	// record (announcing the shard before its first trial finishes)
	// waits for the plan those records lead to.
	ran, interrupted := false, false
	next := lo
dispatch:
	for {
		for ; next < end; next++ {
			if have[next] {
				continue
			}
			if !ran {
				s.progressMu.Lock()
				s.report(true, false)
				s.progressMu.Unlock()
				ran = true
			}
			pending.Add(1)
			select {
			case idxCh <- next:
			case <-ctx.Done():
				pending.Done()
				interrupted = true
				break dispatch
			}
		}
		pending.Wait()
		if !s.adaptive {
			break
		}
		v := evaluate(s.rule, results[:end], have[:end])
		v.replayed = !ran
		s.m.recordVerdict(v, cfg.Trials)
		s.progressMu.Lock()
		s.halfWidth = v.halfWidth
		if v.stop {
			s.planFinal = true
		} else {
			end = s.rule.NextBoundary(end)
			s.total = end
		}
		s.progressMu.Unlock()
		if v.stop || ctx.Err() != nil {
			break
		}
	}
	close(idxCh)
	wg.Wait()
	if !interrupted && ctx.Err() != nil {
		// Cancellation landed after the last dispatch; the result is
		// complete but the caller's intent to stop is still recorded.
		interrupted = true
	}

	// A run with nothing of its own to dispatch still announces the
	// shard. The final record, Running=false, marks the shard done (or
	// interrupted) and carries the final plan.
	s.progressMu.Lock()
	if !ran {
		s.report(true, false)
	}
	s.report(false, interrupted)
	s.progressMu.Unlock()

	planned := cfg.Trials
	if s.adaptive {
		planned = end
	}
	res := &CampaignResult{
		App:         cfg.Builder.AppName(),
		Spec:        cfg.Spec,
		Golden:      s.golden,
		Requested:   cfg.Trials,
		Planned:     planned,
		PlanFinal:   s.planFinal,
		Resumed:     s.resumed,
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
		if attempt >= DefaultTrialRetries {
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

// finished records metrics and progress for one finished trial
// (completed or aborted).
func (s *supervisor) finished(tr TrialResult, ts trialStats, wall time.Duration) {
	if tr.Disposition == DispositionCompleted {
		s.m.recordTrial(tr, ts, wall)
	}
	if s.cfg.Progress == nil {
		return
	}
	s.progressMu.Lock()
	s.tally(tr)
	s.report(true, false)
	s.progressMu.Unlock()
}

// tally counts one trial with a result toward the progress record.
func (s *supervisor) tally(tr TrialResult) {
	s.done++
	if tr.Disposition == DispositionCompleted {
		s.completed++
		s.counts[tr.Outcome]++
	} else {
		s.aborted++
	}
}

// report delivers one progress record to the Progress hook, if any;
// progressMu must be held. Resumed trials count toward Done but cost
// this process no time, so the rate is over the trials run here;
// dividing all of Done by the elapsed time would overstate it and
// shrink the ETA.
func (s *supervisor) report(running, interrupted bool) {
	if s.cfg.Progress == nil {
		return
	}
	p := ShardProgress{
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
	}
	for o, n := range s.counts {
		p.Outcomes[o.String()] = n
	}
	if p.ElapsedSeconds > 0 {
		p.TrialsPerSec = float64(s.done-s.resumed) / p.ElapsedSeconds
	}
	if rem := s.total - s.done; running && rem > 0 && p.TrialsPerSec > 0 {
		p.EtaSeconds = float64(rem) / p.TrialsPerSec
	}
	if s.adaptive {
		p.Adaptive, p.CIHalfWidth = true, s.halfWidth
		p.PlannedTrials, p.PlanFinal = s.total, s.planFinal
		if saved := s.cfg.Trials - s.total; s.planFinal && saved > 0 {
			p.TrialsSaved = saved
		}
	}
	s.cfg.Progress(p)
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
