package hrmsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hrmsim/internal/core"
	"hrmsim/internal/obsv"
)

// TestFleetStatusMatchesMergedCharacterization pins the acceptance
// criterion of the control plane: after a sharded campaign, the fleet
// aggregate read from the shard directory's journals reports exactly
// the trial counts of the merged Characterization.
func TestFleetStatusMatchesMergedCharacterization(t *testing.T) {
	dir := t.TempDir()
	const shards = 3
	base := CharacterizeConfig{
		App:    AppKVStore,
		Error:  SoftSingleBit,
		Size:   SizeSmall,
		Trials: 30,
		Seed:   13,
	}
	for i := 0; i < shards; i++ {
		cfg := base
		cfg.ShardIndex, cfg.ShardCount = i, shards
		cfg.JournalPath = filepath.Join(dir, core.ShardJournalName(i, shards))
		cfg.Metrics = obsv.NewRegistry()
		if _, err := Characterize(cfg); err != nil {
			t.Fatal(err)
		}
	}
	merged, info, err := MergeShards(MergeConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := LoadFleetStatus(dir)
	if err != nil {
		t.Fatal(err)
	}

	if fs.App != base.App || fs.Error != base.Error || fs.Trials != base.Trials || fs.Seed != base.Seed {
		t.Errorf("fleet identity = %+v, want the campaign's", fs)
	}
	if fs.ConfigHash != info.ConfigHash {
		t.Errorf("fleet config hash %s != merge's %s", fs.ConfigHash, info.ConfigHash)
	}
	if fs.Done != base.Trials || fs.Total != base.Trials {
		t.Errorf("fleet done/total = %d/%d, want %d/%d", fs.Done, fs.Total, base.Trials, base.Trials)
	}
	if fs.Completed != merged.Completed || fs.Aborted != merged.Aborted {
		t.Errorf("fleet completed/aborted = %d/%d, want %d/%d",
			fs.Completed, fs.Aborted, merged.Completed, merged.Aborted)
	}
	// The aggregate outcome taxonomy must match the merged science
	// exactly (the merged map also carries explicit zeros).
	for o, n := range merged.Outcomes {
		if fs.Outcomes[o] != n {
			t.Errorf("fleet outcome %s = %d, want %d", o, fs.Outcomes[o], n)
		}
	}
	for o, n := range fs.Outcomes {
		if merged.Outcomes[o] != n {
			t.Errorf("fleet reports outcome %s=%d the merge does not", o, n)
		}
	}
	if fs.Running != 0 || fs.Interrupted != 0 {
		t.Errorf("finished fleet reports running=%d interrupted=%d", fs.Running, fs.Interrupted)
	}
	if len(fs.Shards) != shards {
		t.Fatalf("fleet has %d shards, want %d", len(fs.Shards), shards)
	}
	for i, sh := range fs.Shards {
		if sh.Index != i || sh.Count != shards {
			t.Errorf("shard %d coords = %d/%d", i, sh.Index, sh.Count)
		}
		if sh.Done != sh.Total || sh.Running {
			t.Errorf("shard %d not finished: %+v", i, sh)
		}
		if sh.AgeSeconds < 0 || sh.AgeSeconds > 3600 {
			t.Errorf("shard %d journal age %gs implausible", i, sh.AgeSeconds)
		}
	}
	// The fleet metrics aggregate uses the same merge rule as the
	// post-hoc merge of the trailers, so the deterministic counters
	// agree.
	if fs.Metrics == nil || info.Metrics == nil {
		t.Fatal("missing metrics aggregate (status or merge)")
	}
	if got, want := fs.Metrics.Counters["campaign_trials_total"], int64(merged.Completed); got != want {
		t.Errorf("fleet campaign_trials_total = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(fs.Metrics.Counters["campaign_outcome_crash"], info.Metrics.Counters["campaign_outcome_crash"]) {
		t.Errorf("fleet vs merge crash counters: %v vs %v",
			fs.Metrics.Counters["campaign_outcome_crash"], info.Metrics.Counters["campaign_outcome_crash"])
	}
}

func TestLoadFleetStatusErrNoStatus(t *testing.T) {
	_, err := LoadFleetStatus(t.TempDir())
	if !errors.Is(err, ErrNoStatus) {
		t.Errorf("empty dir err = %v, want ErrNoStatus", err)
	}
}

func TestLoadFleetStatusRejectsMixedCampaigns(t *testing.T) {
	dir := t.TempDir()
	write := func(idx int, seed int64) {
		t.Helper()
		meta := core.JournalMeta{App: "kvstore", Error: "soft-1bit", Trials: 10, Seed: seed,
			ShardIndex: idx, ShardCount: 2}
		j, _, err := core.OpenJournal(filepath.Join(dir, core.ShardJournalName(idx, 2)), meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write(0, 1)
	write(1, 2) // different seed → different campaign
	_, err := LoadFleetStatus(dir)
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Errorf("mixed-campaign err = %v", err)
	}
}

// failingWriter accepts the journal header, then fails every write.
type failingWriter struct{ strings.Builder }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.Len() > 0 {
		return 0, errors.New("disk full")
	}
	return w.Builder.Write(p)
}

// TestFailedJournalGetsNoTrailer: a journal with a sticky write error
// holds only a prefix of the shard's trials, so its trailer is refused
// with that error (Characterize returns it from Close) and the journal
// reads as a shard that never finished (TestShardProgressFromJournal).
func TestFailedJournalGetsNoTrailer(t *testing.T) {
	meta := core.JournalMeta{App: "kvstore", Error: "soft-1bit", Trials: 4, Seed: 1}
	w := &failingWriter{}
	j, err := core.NewJournal(w, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(core.TrialResult{}); err == nil {
		t.Fatal("append to a failing writer succeeded")
	}
	if err := j.Finish(core.JournalFinal{}); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("trailer after a failed write: err = %v, want the sticky write error", err)
	}
	if err := j.Close(); err == nil {
		t.Error("Close of a failed journal returned no error")
	}
	if strings.Count(w.String(), "\n") != 1 {
		t.Errorf("the failed journal holds more than its header:\n%s", w)
	}
}

// TestFleetStatusKilledThenResumed: a killed attempt leaves a journal
// without a trailer, which the fleet view shows running with the age of
// its last write; the -resume attempt that finishes the shard shows it
// finished, with the resumed trials its trailer counts.
func TestFleetStatusKilledThenResumed(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := CharacterizeConfig{App: AppKVStore, Size: SizeSmall, Trials: 24, Seed: 6, Parallelism: 1,
		ShardIndex: 1, ShardCount: 2, Context: ctx, JournalPath: filepath.Join(dir, core.ShardJournalName(1, 2))}
	cfg.Progress = func(p ProgressInfo) {
		if p.Done == 3 {
			cancel()
		}
	}
	if _, err := Characterize(cfg); err != nil {
		t.Fatal(err)
	}
	// A killed worker writes no trailer: cut it off, and date the last
	// write an hour back.
	b, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndexByte(b[:len(b)-1], '\n') + 1
	if err := os.WriteFile(cfg.JournalPath, b[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	hourAgo := time.Now().Add(-time.Hour)
	if err := os.Chtimes(cfg.JournalPath, hourAgo, hourAgo); err != nil {
		t.Fatal(err)
	}
	fs, err := LoadFleetStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	sh := fs.Shards[0]
	if !sh.Running || sh.Interrupted || sh.Done < 3 || sh.Total != 12 || fs.Running != 1 {
		t.Errorf("killed attempt: %+v, want running with at least 3/12 done", sh)
	}
	if sh.AgeSeconds < 3590 || sh.AgeSeconds > 3700 {
		t.Errorf("killed attempt's age %gs, want the journal's hour", sh.AgeSeconds)
	}

	cfg.Context, cfg.Progress, cfg.ResumePath = nil, nil, cfg.JournalPath
	if _, err := Characterize(cfg); err != nil {
		t.Fatal(err)
	}
	if fs, err = LoadFleetStatus(dir); err != nil {
		t.Fatal(err)
	}
	sh = fs.Shards[0]
	if sh.Running || sh.Interrupted || sh.Done != 12 || sh.Resumed < 3 || fs.Running != 0 || fs.Resumed != sh.Resumed {
		t.Errorf("resumed attempt: %+v, want finished, 12/12 done, at least 3 resumed", sh)
	}
	if sh.AgeSeconds > 60 {
		t.Errorf("finished journal's age %gs, want its fresh trailer's", sh.AgeSeconds)
	}
}

// TestFleetStatusReplaysAdaptivePlan: the plan of an adaptive campaign,
// re-derived from its journal under the header's stopping rule, is the
// one the supervisor reported last — after a full run and after one
// cancelled mid-plan.
func TestFleetStatusReplaysAdaptivePlan(t *testing.T) {
	for _, cancelAt := range []int{0, 45} {
		t.Run(fmt.Sprintf("cancel-at=%d", cancelAt), func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var final ProgressInfo
			cfg := CharacterizeConfig{App: AppKVStore, Size: SizeSmall, Trials: 120, Seed: 6, Parallelism: 2,
				TargetCI: 0.04, Context: ctx, JournalPath: filepath.Join(dir, "adaptive.jsonl")}
			cfg.Progress = func(p ProgressInfo) {
				final = p
				if cancelAt > 0 && p.Done == cancelAt {
					cancel()
				}
			}
			if _, err := Characterize(cfg); err != nil {
				t.Fatal(err)
			}
			if final.Interrupted != (cancelAt > 0) || final.PlanFinal == (cancelAt > 0) {
				t.Fatalf("test setup: the supervisor's final record %+v", final)
			}
			fs, err := LoadFleetStatus(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := fs.Shards[0].ShardProgress
			// Host timing and the ETA are the only fields a journal does
			// not replay.
			got.TrialsPerSec, got.ElapsedSeconds = final.TrialsPerSec, final.ElapsedSeconds
			got.EtaSeconds = final.EtaSeconds
			if !reflect.DeepEqual(got, final) {
				t.Errorf("re-derived progress differs from the supervisor's final record:\njournal:    %+v\nsupervisor: %+v", got, final)
			}
			if fs.CIHalfWidth != final.CIHalfWidth || fs.Planned != final.PlannedTrials {
				t.Errorf("fleet plan: CI ±%g over %d, want ±%g over %d", fs.CIHalfWidth, fs.Planned,
					final.CIHalfWidth, final.PlannedTrials)
			}
		})
	}
}
