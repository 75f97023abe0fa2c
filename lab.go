package hrmsim

import (
	"fmt"

	"hrmsim/internal/experiments"
)

// ComparisonRow is one paper-vs-measured data point of a regenerated
// experiment.
type ComparisonRow = experiments.Comparison

// ExperimentReport is one regenerated table or figure: its ID (see
// ExperimentIDs), a title, the rendered Text ready to print, and the
// structured paper-vs-measured Comparisons (empty, never nil, for an
// experiment without any).
type ExperimentReport = experiments.Report

// ExperimentIDs lists every reproducible table and figure in paper order:
// table1, table3, table4, fig3, fig4, fig5a, fig5b, fig6, table5, table6,
// fig8, fig9.
func ExperimentIDs() []string { return experiments.IDs() }

// ExtensionIDs lists the experiments beyond the paper's published
// evaluation: multi-server aggregation (§V-B), correlated
// device-structure faults (§VII future work), and scrubbing/retirement
// ablations.
func ExtensionIDs() []string { return experiments.ExtensionIDs() }

// LabConfig sizes a Lab's campaigns.
type LabConfig struct {
	// Trials is the trial index space per campaign cell (default 400).
	// With TargetCI unset every index runs exactly once; with TargetCI
	// set, Trials is each cell's hard budget and the adaptive planner
	// usually stops well short of it. For quick runs either lower
	// Trials to ~60 or set TargetCI and let cells stop themselves.
	Trials int
	// TargetCI, when positive, runs every campaign cell under the
	// adaptive planner: a cell stops as soon as the Wilson CI
	// half-width (level 0.90) of its crash probability narrows to this
	// target, so `tables` gets faster at equal statistical quality. 0
	// keeps the classic fixed-N cells.
	TargetCI float64
	// TimingTrials is the larger count for the Fig. 5a timing
	// distribution (default 3× Trials).
	TimingTrials int
	// Watchpoints for safe-ratio sampling (default 1590, the paper's
	// Fig. 5b sample size).
	Watchpoints int
	// Seed drives everything (default 1).
	Seed int64
	// Parallelism bounds concurrent trials (default GOMAXPROCS).
	Parallelism int
	// Progress, if non-nil, is called after every completed injection
	// trial of every campaign cell with that cell's live progress
	// (counts, trial rate, ETA). Calls within one cell are serialized.
	Progress func(ProgressInfo)
}

// Lab regenerates the paper's tables and figures. Campaign cells are
// cached, so regenerating several related figures shares work.
type Lab struct {
	suite *experiments.Suite
}

// NewLab creates a lab.
func NewLab(cfg LabConfig) (*Lab, error) {
	if cfg.Trials == 0 {
		cfg.Trials = 400
	}
	if cfg.TimingTrials == 0 {
		cfg.TimingTrials = 3 * cfg.Trials
	}
	if cfg.Watchpoints == 0 {
		cfg.Watchpoints = 1590
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.TargetCI < 0 || cfg.TargetCI >= 1 {
		return nil, fmt.Errorf("hrmsim: TargetCI must be in (0, 1), got %g", cfg.TargetCI)
	}
	s, err := experiments.NewSuite(experiments.Scale{
		Trials:      cfg.Trials,
		Fig5aTrials: cfg.TimingTrials,
		Watchpoints: cfg.Watchpoints,
		TargetCI:    cfg.TargetCI,
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
		Progress:    cfg.Progress,
	})
	if err != nil {
		return nil, err
	}
	return &Lab{suite: s}, nil
}

// Run regenerates one experiment by ID.
func (l *Lab) Run(id string) (*ExperimentReport, error) {
	return l.suite.Run(id)
}

// RunAll regenerates every experiment in paper order.
func (l *Lab) RunAll() ([]*ExperimentReport, error) {
	var out []*ExperimentReport
	for _, id := range experiments.IDs() {
		rep, err := l.Run(id)
		if err != nil {
			return nil, fmt.Errorf("hrmsim: experiment %s: %w", id, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
