package hrmsim

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"hrmsim/internal/core"
	"hrmsim/internal/simmem"
)

// TestExplainReplaysEveryJournaledTrial: for one small seeded campaign per
// application, and for both shards of one kvstore campaign, holding
// decided, crash and incorrect trials, every trial re-runs through
// explain to its journaled record bit for bit (explainTrial refuses
// otherwise), and its log agrees with its outcome: a decided trial
// injects nothing, a masked-by-overwrite or -logic trial's first
// consumption is a store or a load, and a latent one has none.
func TestExplainReplaysEveryJournaledTrial(t *testing.T) {
	for _, c := range []struct {
		app    App
		err    ErrorType
		shards int // 0: unsharded
	}{{AppWebSearch, HardSingleBit, 0}, {AppKVStore, SoftSingleBit, 0}, {AppGraphMine, SoftSingleBit, 0}, {AppKVStore, HardSingleBit, 2}} {
		name := string(c.app)
		if c.shards > 0 {
			name += fmt.Sprintf("/shards%d", c.shards)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const trials = 30
			dir := t.TempDir()
			// journal[i] is the journal that records trial i.
			journal := make([]string, trials)
			completed, outcomes := 0, map[string]int{}
			for k := 0; k < max(c.shards, 1); k++ {
				cfg := CharacterizeConfig{App: c.app, Error: c.err, Size: SizeSmall,
					Trials: trials, Seed: 1, JournalPath: filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", k))}
				lo, hi := 0, trials
				if c.shards > 0 {
					cfg.ShardIndex, cfg.ShardCount = k, c.shards
					lo, hi = core.ShardSpec{Index: k, Count: c.shards}.Range(trials)
				}
				res, err := Characterize(cfg)
				if err != nil {
					t.Fatal(err)
				}
				completed += res.Completed
				for o, n := range res.Outcomes {
					outcomes[o] += n
				}
				for i := lo; i < hi; i++ {
					journal[i] = cfg.JournalPath
				}
			}
			if completed != trials || outcomes["crash"] == 0 || outcomes["incorrect-response"] == 0 {
				t.Fatalf("campaign lacks a crash or an incorrect trial: %d completed, %v", completed, outcomes)
			}
			decided := 0
			for i := 0; i < trials; i++ {
				_, ex, err := explainTrial(journal[i], i)
				if err != nil {
					t.Fatalf("trial %d: %v", i, err)
				}
				first := simmem.AccessKind(0)
				if len(ex.Consumptions) > 0 {
					first = ex.Consumptions[0].Kind
				}
				switch o := ex.Result.Outcome; {
				case ex.Decided:
					decided++
					if len(ex.Injection.Targets) != 0 {
						t.Errorf("trial %d: decided, but the log holds an injection", i)
					}
				case o == core.OutcomeMaskedOverwrite && first != simmem.Store,
					o == core.OutcomeMaskedLogic && first != simmem.Load,
					o == core.OutcomeMaskedLatent && first != 0,
					(o == core.OutcomeCrash || o == core.OutcomeIncorrect) && first == 0:
					t.Errorf("trial %d: %s, but the first consumption is %v", i, o, first)
				}
			}
			if decided == 0 {
				t.Error("no trial was decided")
			}
		})
	}
}

// TestExplainRefusals: a trial the journal lacks, one it records as
// aborted, and a journaled record no run produces each fail with their
// named error, and a journal of another campaign is refused.
func TestExplainRefusals(t *testing.T) {
	cfg := CharacterizeConfig{App: AppKVStore, Size: SizeSmall, Trials: 4}
	if err := cfg.resolve(); err != nil {
		t.Fatal(err)
	}
	_, meta, err := cfg.campaign()
	if err != nil {
		t.Fatal(err)
	}
	write := func(meta core.JournalMeta, recs ...core.TrialResult) string {
		path := filepath.Join(t.TempDir(), "campaign.jsonl")
		j, _, err := core.OpenJournal(path, meta)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range recs {
			if err := j.Append(tr); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	path := write(meta,
		core.TrialResult{Index: 0, Disposition: core.DispositionAborted, AbortReason: "op_budget"},
		core.TrialResult{Index: 1, Outcome: core.OutcomeCrash, Region: "heap", Kind: simmem.RegionHeap, Requests: 1})
	for trial, want := range map[int]error{0: ErrTrialAborted, 1: ErrExplainMismatch, 2: ErrTrialNotJournaled, 4: ErrTrialNotJournaled} {
		if _, _, err := explainTrial(path, trial); !errors.Is(err, want) {
			t.Errorf("trial %d: err = %v, want %v", trial, err, want)
		}
	}
	meta.Warmup = 3
	if _, _, err := explainTrial(write(meta), 0); err == nil {
		t.Error("explained a trial of a campaign whose identity this build cannot rebuild")
	}
}
