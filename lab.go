package hrmsim

import "hrmsim/internal/experiments"

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

// LabConfig sizes a Lab's campaigns: Trials (default 400) and TargetCI per
// campaign cell, Fig5aTrials (default 3× Trials), Watchpoints (default
// 1590), Seed (default 1), Parallelism and a Progress hook.
type LabConfig = experiments.Scale

// Lab regenerates the paper's tables and figures. Campaign cells are
// cached, so regenerating several related figures shares work.
type Lab struct {
	suite *experiments.Suite
}

// NewLab creates a lab.
func NewLab(cfg LabConfig) (*Lab, error) {
	s, err := experiments.NewSuite(cfg)
	if err != nil {
		return nil, err
	}
	return &Lab{suite: s}, nil
}

// Run regenerates one experiment by ID.
func (l *Lab) Run(id string) (*ExperimentReport, error) {
	return l.suite.Run(id)
}
