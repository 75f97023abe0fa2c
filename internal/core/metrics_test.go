package core

import (
	"reflect"
	"testing"

	"hrmsim/internal/faults"
	"hrmsim/internal/obsv"
)

// countersFromTrials recomputes, from a campaign's trial results alone,
// every registry counter the engine derives from them.
func countersFromTrials(res *CampaignResult) map[string]int64 {
	want := map[string]int64{}
	for _, tr := range res.Trials {
		if tr.Disposition != DispositionCompleted {
			want[obsv.LabeledName("campaign_trials_aborted_total", "reason", tr.AbortReason)]++
			continue
		}
		want["campaign_trials_total"]++
		want["campaign_snapshot_restores_total"]++
		want["campaign_requests_total"] += int64(tr.Requests)
		want["campaign_incorrect_responses_total"] += int64(tr.Incorrect)
		want["campaign_outcome_"+tr.Outcome.MetricName()]++
	}
	return want
}

// checkMetricsMatchTrials fails unless every counter in snap equals its
// value recomputed from res (zero when the results imply none), and
// every histogram holds exactly one observation per completed trial. The
// results do not carry the fast-path counters, nor which trials were
// decided rather than served — only that a decided trial is a masked one.
func checkMetricsMatchTrials(t *testing.T, snap obsv.Snapshot, res *CampaignResult) {
	t.Helper()
	want := countersFromTrials(res)
	for name, got := range snap.Counters {
		switch name {
		case "simmem_fastpath_loads_total", "simmem_fastpath_words_total":
			continue
		case "campaign_trials_decided_total":
			if masked := want["campaign_outcome_masked_latent"] + want["campaign_outcome_masked_by_overwrite"]; got > masked {
				t.Errorf("%s = %d, more than the %d masked-latent and masked-by-overwrite trials", name, got, masked)
			}
			continue
		}
		if got != want[name] {
			t.Errorf("%s = %d, want %d from the trial results", name, got, want[name])
		}
	}
	for name, w := range want {
		if _, ok := snap.Counters[name]; !ok && w != 0 {
			t.Errorf("%s missing from the registry, want %d", name, w)
		}
	}
	for name, h := range snap.Histograms {
		if h.Count != int64(res.Completed()) {
			t.Errorf("%s holds %d observations, want one per completed trial (%d)",
				name, h.Count, res.Completed())
		}
	}
}

// TestMetricsArePureFunctionOfTrials: the registry is written once per
// finished trial, so its deterministic content depends on the trial
// results and on nothing else — not on how many workers ran them, and
// not on attempts the watchdog abandoned (that leg runs the same check in
// TestWatchdogDeadlineAbortsHungTrial, which already hangs a trial).
func TestMetricsArePureFunctionOfTrials(t *testing.T) {
	b := kvBuilder(t, 7)
	golden, err := GoldenRun(b)
	if err != nil {
		t.Fatal(err)
	}
	run := func(par int) (*CampaignResult, obsv.Snapshot) {
		t.Helper()
		reg := obsv.NewRegistry()
		res, err := Run(CampaignConfig{
			Builder: b, Spec: faults.SingleBitHard, Trials: 40, Seed: 5,
			Warmup: len(golden) / 4, Parallelism: par, Golden: golden,
			RunOptions: RunOptions{Metrics: reg},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, reg.Snapshot()
	}
	res, serial := run(1)
	_, parallel := run(4)
	checkMetricsMatchTrials(t, serial, res)
	if !reflect.DeepEqual(serial.Counters, parallel.Counters) {
		t.Errorf("counters depend on parallelism:\npar 1: %v\npar 4: %v", serial.Counters, parallel.Counters)
	}
	for name, h := range serial.Histograms {
		switch name {
		case "campaign_trial_wall_ms":
			// Host wall clock.
			continue
		case "campaign_snapshot_dirty_pages":
			// A restore rolls back what the previous trial on the same
			// worker dirtied, so the buckets follow the schedule; only the
			// observation count is the results'.
			if got := parallel.Histograms[name].Count; got != h.Count {
				t.Errorf("%s count = %d at parallelism 4, %d at 1", name, got, h.Count)
			}
			continue
		}
		if got := parallel.Histograms[name].Counts; !reflect.DeepEqual(got, h.Counts) {
			t.Errorf("%s buckets depend on parallelism:\npar 1: %v\npar 4: %v", name, h.Counts, got)
		}
	}
}
