package core

import (
	"context"
	"sync"
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/stats"
)

// supervisor drives one campaign's worker pool: context cancellation
// with in-flight draining, journal appends, resume skipping, and the
// abort of a trial whose infrastructure fails. The Fig. 2 trial loop
// itself lives in campaign.go (Prepared.runTrial); the supervisor
// only decides which trials run and records what became of each. A
// runaway request needs no per-trial watchdog: each app's per-request
// apps.Budget ends it as a crash.
type supervisor struct {
	cfg CampaignConfig
	// prep is the build the campaign runs on: its golden run, its record
	// and the session pool the workers draw from.
	prep *Prepared
	par  int
	m    *campaignMetrics
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
// dispatch and drains the in-flight trials. Each worker takes a session
// from the prepared build's pool, or builds one when the pool is empty,
// and puts it back when the run ends.
func (s *supervisor) run(ctx context.Context) *CampaignResult {
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
		// Each worker keeps one pooled session across all its trials.
		sess := s.prep.take()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { s.prep.put(sess) }()
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
		Requested:   cfg.Trials,
		Planned:     planned,
		PlanFinal:   s.planFinal,
		Resumed:     s.resumed,
		Interrupted: interrupted,
		Parallelism: s.par,
	}
	res.fold(cfg.Trials, func(i int) (TrialResult, bool) { return results[i], have[i] })
	return res
}

// runOne runs trial i once on the worker's session, building the
// session first when the worker has none. It never returns an error: a
// trial whose build, restore or injection fails is recorded as aborted
// (AbortReasonWorkerError) and returns no session, so the worker
// rebuilds its instance for its next trial. The trial gets no second
// attempt, since building and restoring an instance are deterministic
// and would fail the same way again.
func (s *supervisor) runOne(sess apps.SnapshotApp, i int) (TrialResult, trialStats, apps.SnapshotApp) {
	var err error
	if sess == nil {
		sess, err = s.prep.newSession()
	}
	if err == nil {
		var tr TrialResult
		var ts trialStats
		if tr, ts, err = s.prep.runTrial(sess, s.cfg, i, nil); err == nil {
			tr.Index = i
			return tr, ts, sess
		}
	}
	s.m.recordAbort()
	return TrialResult{
		Index:       i,
		Disposition: DispositionAborted,
		AbortReason: AbortReasonWorkerError,
		AbortDetail: err.Error(),
	}, trialStats{}, nil
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

// ShardProgress is a campaign's progress record: what the supervisor
// passes to the RunOptions.Progress hook about its own run, and what
// ShardJournal.Progress re-derives from a shard's journal. The fleet
// view's per-shard row (hrmsim.ShardStatusInfo) embeds it, so a hook
// record and a status row share these keys, their order and their
// omitempty rules by construction.
type ShardProgress struct {
	// TrialLo/TrialHi is the owned half-open trial index range.
	TrialLo int `json:"trial_lo"`
	TrialHi int `json:"trial_hi"`
	// Done counts trials with a result so far (completed + aborted,
	// including resumed records); Total is the shard's range size, or
	// an adaptive plan's current extent.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Dispositions: Completed trials reached Fig. 1 classification,
	// Aborted ones were given up on, Resumed ones were merged from a
	// previous run's journal (Resumed trials also count under their
	// disposition).
	Completed int `json:"completed"`
	Aborted   int `json:"aborted,omitempty"`
	Resumed   int `json:"resumed,omitempty"`
	// Outcomes counts completed trials per Fig. 1 taxonomy label
	// (Outcome.String() keys: "crash", "masked-by-overwrite", ...). It is
	// always set, so a record with no completed trial carries {}.
	Outcomes map[string]int `json:"outcomes"`
	// TrialsPerSec is the rate of the trials run by this process (Done
	// minus Resumed, over ElapsedSeconds, the host wall time since the
	// run started); EtaSeconds projects Total−Done at that rate (zero on
	// the final record).
	TrialsPerSec   float64 `json:"trials_per_sec,omitempty"`
	EtaSeconds     float64 `json:"eta_seconds,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	// Adaptive-plan telemetry, present only when the campaign runs
	// under an adaptive plan (all omitempty; the plan is still open-ended
	// while Adaptive && !PlanFinal):
	// CIHalfWidth is the latest Wilson CI half-width verdict on the
	// crash probability (1 until the first evaluation boundary);
	// PlannedTrials is the plan's current extent, the end of the
	// running segment (Total tracks it, so done/total stays meaningful);
	// PlanFinal marks the stopping rule has fired; TrialsSaved is the
	// requested-minus-planned trial count once the plan is final.
	Adaptive      bool    `json:"adaptive,omitempty"`
	CIHalfWidth   float64 `json:"ci_half_width,omitempty"`
	PlannedTrials int     `json:"planned_trials,omitempty"`
	PlanFinal     bool    `json:"plan_final,omitempty"`
	TrialsSaved   int     `json:"trials_saved,omitempty"`
	// Running is true on every record but the final one; Interrupted
	// is set on the final record of a cancelled run.
	Running     bool `json:"running"`
	Interrupted bool `json:"interrupted,omitempty"`
}
