package experiments

import (
	"context"
	"fmt"

	"hrmsim/internal/core"
	"hrmsim/internal/faults"
	"hrmsim/internal/inject"
	"hrmsim/internal/simmem"
	"hrmsim/internal/stats"
)

// campaign runs (or returns the cached result of) one injection campaign
// cell — an application, an error type, an optional region restriction
// (kind 0 = all regions) and a trial index space: a fixed plan of exactly
// trials trials, or — under an adaptive scale (TargetCI > 0) — one
// campaign that stops as soon as the cell's crash-probability CI reaches
// the target, with trials as its budget.
func (s *Suite) campaign(app string, spec faults.Spec, kind simmem.RegionKind, trials int) (*core.CampaignResult, error) {
	key := fmt.Sprintf("%s|%v|%d|%d|%g", app, spec, kind, trials, s.scale.TargetCI)
	s.mu.Lock()
	res := s.campaigns[key]
	s.mu.Unlock()
	if res != nil {
		return res, nil
	}
	entry, err := s.app(app)
	if err != nil {
		return nil, err
	}
	cfg := core.CampaignConfig{
		Builder:     entry.builder,
		Spec:        spec,
		Trials:      trials,
		Seed:        s.scale.Seed,
		Parallelism: s.scale.Parallelism,
		RunOptions:  core.RunOptions{Progress: s.scale.Progress},
	}
	if kind != 0 {
		cfg.Filter = inject.KindFilter(kind)
	}
	if s.scale.TargetCI > 0 {
		cfg.Planner = core.NewAdaptivePlanner(s.cellRule(trials))
	}
	res, err = entry.prepared.Run(context.Background(), cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: campaign %s: %w", key, err)
	}
	s.mu.Lock()
	if s.campaigns == nil {
		s.campaigns = make(map[string]*core.CampaignResult)
	}
	s.campaigns[key] = res
	s.mu.Unlock()
	return res, nil
}

// cellRule is the stopping rule every adaptive cell runs under (the
// planner clamps MinTrials to the budget).
func (s *Suite) cellRule(trials int) stats.SequentialStopping {
	return stats.SequentialStopping{
		TargetHalfWidth: s.scale.TargetCI,
		Level:           core.CILevel,
		MinTrials:       core.DefaultAdaptiveMinTrials,
		MaxTrials:       trials,
	}
}

// regionsOf lists the region kinds an application actually maps.
func (s *Suite) regionsOf(app string) ([]simmem.RegionKind, error) {
	_, rec, err := s.profile(app)
	if err != nil {
		return nil, err
	}
	var kinds []simmem.RegionKind
	for _, r := range rec.Regions() {
		kinds = append(kinds, r.Kind)
	}
	return kinds, nil
}
