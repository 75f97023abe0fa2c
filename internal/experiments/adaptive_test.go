package experiments

import (
	"reflect"
	"testing"

	"hrmsim/internal/core"
	"hrmsim/internal/faults"
)

// TestAdaptiveCellMatchesSingleShot: a cell run through the suite's
// cache is bit-identical to the same cell run as a stand-alone adaptive
// campaign under the suite's stopping rule — also when another cell of
// the same application ran first on the suite's prepared build, so its
// pooled sessions carry nothing from one cell into the next.
func TestAdaptiveCellMatchesSingleShot(t *testing.T) {
	for _, tc := range []struct {
		name       string
		otherFirst bool
	}{
		{"first-cell", false},
		{"after-another-cell", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSuite(Scale{Trials: 80, Fig5aTrials: 80, Watchpoints: 50, TargetCI: 0.15, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if tc.otherFirst {
				if _, err := s.campaign("kvstore", faults.SingleBitHard, 0, 80); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.campaign("kvstore", faults.SingleBitSoft, 0, 80)
			if err != nil {
				t.Fatal(err)
			}
			if !got.PlanFinal {
				t.Fatal("suite cached a non-final plan")
			}

			entry, err := s.app("kvstore")
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(core.CampaignConfig{
				Builder: entry.builder,
				Spec:    faults.SingleBitSoft,
				Trials:  80,
				Seed:    1,
				Planner: core.NewAdaptivePlanner(s.cellRule(80)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.Planned != want.Planned {
				t.Errorf("suite cell stopped at %d trials, single shot at %d", got.Planned, want.Planned)
			}
			if !reflect.DeepEqual(got.Trials, want.Trials) {
				t.Error("suite cell trials diverged from the single-shot campaign")
			}
		})
	}
}

// TestPrefetchAdaptiveSweep: every cell of an adaptive sweep finishes
// with a final plan inside its budget, and a repeated cell is served from
// the cache instead of being run again.
func TestPrefetchAdaptiveSweep(t *testing.T) {
	s, err := NewSuite(Scale{Trials: 80, Fig5aTrials: 80, Watchpoints: 50, TargetCI: 0.15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]*core.CampaignResult{}
	for _, app := range []string{"websearch", "kvstore", "kvstore"} {
		res, err := s.campaign(app, faults.SingleBitSoft, 0, 80)
		if err != nil {
			t.Fatal(err)
		}
		if prev := first[app]; prev != nil {
			if res != prev {
				t.Errorf("%s: repeated cell was run again instead of served from the cache", app)
			}
			continue
		}
		first[app] = res
		if !res.PlanFinal || res.Planned <= 0 || res.Planned > 80 {
			t.Errorf("%s: Planned = %d (final %v) of budget 80", app, res.Planned, res.PlanFinal)
		}
		if len(res.Trials) != res.Planned {
			t.Errorf("%s: %d trials for a %d-trial plan", app, len(res.Trials), res.Planned)
		}
	}
}

// TestFixedScaleKeepsFixedPlans: with TargetCI unset the suite still
// runs classic fixed-N cells.
func TestFixedScaleKeepsFixedPlans(t *testing.T) {
	s, err := NewSuite(Scale{Trials: 20, Fig5aTrials: 20, Watchpoints: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.campaign("kvstore", faults.SingleBitSoft, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlanFinal || res.Planned != 20 || len(res.Trials) != 20 {
		t.Errorf("fixed cell: Planned = %d (final %v), %d trials", res.Planned, res.PlanFinal, len(res.Trials))
	}
}
