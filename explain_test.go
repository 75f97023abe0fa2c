package hrmsim

import (
	"errors"
	"path/filepath"
	"testing"

	"hrmsim/internal/core"
	"hrmsim/internal/simmem"
)

// TestExplainReplaysEveryJournaledTrial: for one small seeded campaign per
// application, holding decided, crash and incorrect trials, every trial
// re-runs through explain to its journaled record bit for bit (explainTrial
// refuses otherwise), and its log agrees with its outcome: a decided trial
// injects nothing, a masked-by-overwrite or -logic trial's first
// consumption is a store or a load, and a latent one has none.
func TestExplainReplaysEveryJournaledTrial(t *testing.T) {
	for _, c := range []struct {
		app App
		err ErrorType
	}{{AppWebSearch, HardSingleBit}, {AppKVStore, SoftSingleBit}, {AppGraphMine, SoftSingleBit}} {
		t.Run(string(c.app), func(t *testing.T) {
			t.Parallel()
			const trials = 30
			path := filepath.Join(t.TempDir(), "campaign.jsonl")
			res, err := Characterize(CharacterizeConfig{App: c.app, Error: c.err, Size: SizeSmall,
				Trials: trials, Seed: 1, JournalPath: path})
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != trials || res.Outcomes["crash"] == 0 || res.Outcomes["incorrect-response"] == 0 {
				t.Fatalf("campaign lacks a crash or an incorrect trial: %d completed, %v", res.Completed, res.Outcomes)
			}
			decided := 0
			for i := 0; i < trials; i++ {
				_, ex, err := explainTrial(path, i)
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
