package core

import (
	"reflect"
	"strings"
	"testing"

	"hrmsim/internal/apps"
	"hrmsim/internal/apps/graphmine"
	"hrmsim/internal/faults"
	"hrmsim/internal/obsv"
)

func gmBuilder(t *testing.T, seed int64) apps.Builder {
	t.Helper()
	cfg := graphmine.DefaultConfig(seed)
	cfg.Nodes = 256
	cfg.AvgDeg = 4
	cfg.Iterations = 2
	cfg.ChunkNodes = 64
	cfg.TopK = 20
	b, err := graphmine.NewBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// buildPerTrial is the reference side of the lifecycle equivalence
// suites: the paper's literal Fig. 2 loop, which restarts the application
// for every trial. It is an apps.SnapshotBuilder, so it runs through the
// engine's one trial path, but its instances restore by doing a fresh
// Build and replaying the warmup instead of rolling pages back.
type buildPerTrial struct{ apps.Builder }

func (b buildPerTrial) BuildSnapshot() (apps.SnapshotApp, error) {
	app, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &rebuiltApp{App: app, b: b.Builder}, nil
}

// rebuiltApp is the current instance of a buildPerTrial session.
type rebuiltApp struct {
	apps.App
	b apps.Builder
	// warm holds the requests served before Snapshot — the warmup
	// prefix Reset replays on each fresh build.
	warm     []int
	captured bool
}

func (a *rebuiltApp) Serve(i int) (apps.Response, error) {
	if !a.captured {
		a.warm = append(a.warm, i)
	}
	return a.App.Serve(i)
}

func (a *rebuiltApp) Snapshot() error {
	a.captured = true
	return nil
}

func (a *rebuiltApp) Reset() (int, error) {
	app, err := a.b.Build()
	if err != nil {
		return 0, err
	}
	for _, q := range a.warm {
		if _, err := app.Serve(q); err != nil {
			return 0, err
		}
	}
	a.App = app
	return 0, nil
}

// runLifecycle runs one campaign on the given builder and parallelism,
// sharing a pre-computed golden run.
func runLifecycle(t *testing.T, b apps.Builder, spec faults.Spec, golden []uint64,
	par, warmup int) *CampaignResult {
	t.Helper()
	res, err := Run(CampaignConfig{
		Builder:     b,
		Spec:        spec,
		Trials:      40,
		Seed:        29,
		Warmup:      warmup,
		Parallelism: par,
		Golden:      golden,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSnapshotLifecycleMatchesFreshBuild pins the tentpole guarantee:
// for every application, error type, and parallelism level, a
// snapshot/restore campaign produces trial results deeply identical to
// the literal build-per-trial Fig. 2 loop — every outcome,
// region, request count, digest-mismatch count, and virtual timestamp.
func TestSnapshotLifecycleMatchesFreshBuild(t *testing.T) {
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
				b := mk(t, 5)
				golden, err := GoldenRun(b)
				if err != nil {
					t.Fatal(err)
				}
				warmup := len(golden) / 4
				fresh := runLifecycle(t, buildPerTrial{b}, spec, golden, 1, warmup)
				for _, par := range []int{1, 4} {
					snap := runLifecycle(t, b, spec, golden, par, warmup)
					if !reflect.DeepEqual(fresh.Trials, snap.Trials) {
						for i := range fresh.Trials {
							if !reflect.DeepEqual(fresh.Trials[i], snap.Trials[i]) {
								t.Fatalf("parallelism %d: trial %d diverged:\nfresh:    %+v\nsnapshot: %+v",
									par, i, fresh.Trials[i], snap.Trials[i])
							}
						}
						t.Fatalf("parallelism %d: trials diverged", par)
					}
				}
			})
		}
	}
}

// freshOnlyBuilder hides a builder's snapshot capability.
type freshOnlyBuilder struct{ b apps.Builder }

func (f freshOnlyBuilder) AppName() string          { return f.b.AppName() }
func (f freshOnlyBuilder) Build() (apps.App, error) { return f.b.Build() }

// TestLifecycleSnapshotRequiresSupport: a builder that cannot snapshot
// is rejected before any trial runs.
func TestLifecycleSnapshotRequiresSupport(t *testing.T) {
	b := freshOnlyBuilder{b: wsBuilder(t, 3)}
	_, err := Run(CampaignConfig{
		Builder: b,
		Spec:    faults.SingleBitSoft,
		Trials:  2,
	})
	if err == nil || !strings.Contains(err.Error(), "SnapshotBuilder") {
		t.Fatalf("err = %v, want snapshot-support error", err)
	}
}

// TestSnapshotMetricsEmitted checks the restore counter and dirty-page
// histogram reach the registry.
func TestSnapshotMetricsEmitted(t *testing.T) {
	b := wsBuilder(t, 4)
	golden, err := GoldenRun(b)
	if err != nil {
		t.Fatal(err)
	}
	reg := obsv.NewRegistry()
	_, err = Run(CampaignConfig{
		Builder:     b,
		Spec:        faults.SingleBitSoft,
		Trials:      10,
		Seed:        6,
		Parallelism: 1,
		Golden:      golden,
		RunOptions:  RunOptions{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["campaign_snapshot_restores_total"]; got != 10 {
		t.Errorf("restores = %d, want 10", got)
	}
	if got := snap.Histograms["campaign_snapshot_dirty_pages"].Count; got != 10 {
		t.Errorf("dirty-page histogram count = %d, want 10", got)
	}
}
