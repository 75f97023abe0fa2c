package core

import (
	"reflect"
	"testing"

	"hrmsim/internal/apps"
	"hrmsim/internal/faults"
)

// slowPathBuilder wraps a SnapshotBuilder and forces every built
// instance through the reference slow memory path (per-byte sensing,
// per-word decoding), giving campaign-level differential coverage of
// the clean-page fast path.
type slowPathBuilder struct {
	apps.SnapshotBuilder
}

func (b slowPathBuilder) Build() (apps.App, error) {
	app, err := b.SnapshotBuilder.Build()
	if err != nil {
		return nil, err
	}
	app.Space().SetFastPath(false)
	return app, nil
}

func (b slowPathBuilder) BuildSnapshot() (apps.SnapshotApp, error) {
	app, err := b.SnapshotBuilder.BuildSnapshot()
	if err != nil {
		return nil, err
	}
	app.Space().SetFastPath(false)
	return app, nil
}

// TestCampaignFastSlowEquivalence pins the fast path's bit-identity at
// full campaign scale: for every application and error type, on both the
// snapshot/restore engine and the build-per-trial reference, a campaign
// run on the fast path produces trial results deeply equal to
// the same campaign forced through the slow path — same outcomes, crash
// reasons, request counts, and virtual timestamps.
func TestCampaignFastSlowEquivalence(t *testing.T) {
	builders := map[string]func(*testing.T, int64) apps.Builder{
		"websearch": wsBuilder,
		"kvstore":   kvBuilder,
		"graphmine": gmBuilder,
	}
	specs := map[string]faults.Spec{
		"soft": faults.SingleBitSoft,
		"hard": faults.SingleBitHard,
	}
	for appName, mk := range builders {
		for specName, spec := range specs {
			t.Run(appName+"/"+specName, func(t *testing.T) {
				t.Parallel()
				b := mk(t, 11)
				sb, ok := b.(apps.SnapshotBuilder)
				if !ok {
					t.Fatalf("%s builder does not support snapshots", appName)
				}
				slow := slowPathBuilder{sb}
				golden, err := GoldenRun(b)
				if err != nil {
					t.Fatal(err)
				}
				warmup := len(golden) / 4
				for _, tc := range []struct {
					name         string
					fastB, slowB apps.Builder
				}{
					{"snapshot", b, slow},
					{"build-per-trial", buildPerTrial{b}, buildPerTrial{slow}},
				} {
					fast := runLifecycle(t, tc.fastB, spec, golden, 4, warmup)
					ref := runLifecycle(t, tc.slowB, spec, golden, 4, warmup)
					if !reflect.DeepEqual(fast.Trials, ref.Trials) {
						for i := range fast.Trials {
							if !reflect.DeepEqual(fast.Trials[i], ref.Trials[i]) {
								t.Fatalf("%s: trial %d diverged:\nfast: %+v\nslow: %+v",
									tc.name, i, fast.Trials[i], ref.Trials[i])
							}
						}
						t.Fatalf("%s: trials diverged", tc.name)
					}
				}
			})
		}
	}
}
