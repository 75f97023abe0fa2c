package hrmsim

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hrmsim/internal/core"
	"hrmsim/internal/obsv"
)

// TestFleetStatusMatchesMergedCharacterization pins the acceptance
// criterion of the control plane: after a sharded campaign, the fleet
// aggregate read from the shard directory's status records reports
// exactly the trial counts of the merged Characterization.
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
		cfg.StatusPath = filepath.Join(dir, core.ShardStatusName(i, shards))
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
		if sh.UpdatedAt().IsZero() || time.Since(sh.UpdatedAt()) > time.Hour {
			t.Errorf("shard %d heartbeat timestamp %v implausible", i, sh.UpdatedAt())
		}
	}
	// The fleet metrics aggregate uses the same merge rule as the
	// post-hoc merge of the final records, so the deterministic counters
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
		meta := core.JournalMeta{App: "kvstore", Error: "soft-1bit", Trials: 10, Seed: seed}
		st := core.ShardStatus{
			ConfigHash: core.ConfigHash(meta),
			Campaign:   meta,
			ShardIndex: idx,
			ShardCount: 2,
		}
		if err := core.WriteStatus(filepath.Join(dir, core.ShardStatusName(idx, 2)), st); err != nil {
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

// TestCharacterizeFailsWhenFinalStatusWriteFails: the final record is
// what merge reads, so a failed final write must fail the run (the
// worker's retry loop then runs the shard again) rather than leave a running
// record behind a successful exit.
func TestCharacterizeFailsWhenFinalStatusWriteFails(t *testing.T) {
	dir := t.TempDir()
	statusPath := filepath.Join(dir, core.ShardStatusName(0, 1))
	cfg := CharacterizeConfig{
		App:         AppKVStore,
		Error:       SoftSingleBit,
		Size:        SizeSmall,
		Trials:      8,
		Seed:        3,
		JournalPath: filepath.Join(dir, core.ShardJournalName(0, 1)),
		StatusPath:  statusPath,
	}
	// The first heartbeat is written before any trial runs; after the
	// first trial, a directory in the way of WriteStatus's temporary
	// file makes every later write fail, the final one included.
	var once sync.Once
	cfg.Progress = func(ProgressInfo) {
		once.Do(func() {
			if err := os.Mkdir(statusPath+".tmp", 0o755); err != nil {
				t.Error(err)
			}
		})
	}
	_, err := Characterize(cfg)
	if err == nil || !strings.Contains(err.Error(), "final status record") {
		t.Fatalf("Characterize err = %v, want a final status record error", err)
	}
	st, err := core.ReadStatus(statusPath)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Running {
		t.Errorf("on-disk record is final, want the last running heartbeat")
	}
}

// failingWriter accepts the journal header, then fails every write.
type failingWriter struct{ wrote bool }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.wrote {
		return 0, errors.New("disk full")
	}
	w.wrote = true
	return len(p), nil
}

// TestFinalStatusRecordDropsFailedJournal: a journal with a sticky write
// error holds only a prefix of the shard's trials, so the final record
// names no journal and says interrupted — status and merge then agree
// the shard is incomplete — while running heartbeats keep naming it.
func TestFinalStatusRecordDropsFailedJournal(t *testing.T) {
	dir := t.TempDir()
	meta := core.JournalMeta{App: "kvstore", Error: "soft-1bit", Trials: 4, Seed: 1}
	j, err := core.NewJournal(&failingWriter{}, meta)
	if err != nil {
		t.Fatal(err)
	}
	statusPath := filepath.Join(dir, core.ShardStatusName(0, 1))
	w := newStatusWriter(&CharacterizeConfig{StatusPath: statusPath, JournalPath: filepath.Join(dir, core.ShardJournalName(0, 1))}, j, meta)

	w.write(ProgressInfo{TrialHi: 4, Running: true})
	if st, err := core.ReadStatus(statusPath); err != nil || st.Journal != core.ShardJournalName(0, 1) {
		t.Fatalf("running heartbeat: journal %q, err %v", st.Journal, err)
	}
	if err := j.Append(core.TrialResult{}); err == nil {
		t.Fatal("append to a failing writer succeeded")
	}
	w.write(ProgressInfo{TrialHi: 4, Done: 4, Completed: 4})
	st, err := core.ReadStatus(statusPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Journal != "" || !st.Interrupted {
		t.Errorf("final record after a journal failure: journal %q, interrupted %v; want none, true",
			st.Journal, st.Interrupted)
	}
	if w.finalErr != nil {
		t.Errorf("finalErr = %v, the final write itself succeeded", w.finalErr)
	}
	if _, _, err := MergeShards(MergeConfig{Dir: dir}); err == nil {
		t.Error("merge consumed a shard whose journal failed a write")
	}
}
