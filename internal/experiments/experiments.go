// Package experiments regenerates every table and figure of the paper's
// evaluation from the reproduction's own machinery: characterization
// campaigns on the three simulated applications (Figs. 3–6, Tables 3 and
// 5), the executable ECC codecs (Table 1), the design-space model
// (Tables 4 and 6), and the tolerable-error analysis (Fig. 8). Each
// generator returns a Report containing rendered text plus structured
// paper-vs-measured comparisons for EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sync"

	"hrmsim/internal/apps"
	"hrmsim/internal/apps/graphmine"
	"hrmsim/internal/apps/kvstore"
	"hrmsim/internal/apps/websearch"
	"hrmsim/internal/core"
	"hrmsim/internal/monitor"
)

// Scale controls how much work the campaign-backed experiments do. The
// zero value of every field means its default (see NewSuite).
type Scale struct {
	// Trials is the trial index space per campaign cell (default 400).
	// With TargetCI unset every index runs exactly once; with TargetCI
	// set, Trials is each cell's hard budget and the adaptive planner
	// usually stops well short of it. For quick runs either lower
	// Trials to ~60 or set TargetCI and let cells stop themselves.
	Trials int
	// Fig5aTrials is the larger trial count for the Fig. 5a
	// time-to-outcome distribution, which needs many crash/incorrect
	// samples (default 3× Trials).
	Fig5aTrials int
	// Watchpoints is the address sample size for safe-ratio and
	// recoverability analysis (default 1590, the paper's Fig. 5b sample
	// size).
	Watchpoints int
	// TargetCI, when positive, runs every campaign cell under the
	// adaptive planner: a cell stops as soon as the Wilson CI
	// half-width (level 0.90) of its crash probability narrows to this
	// target, so `tables` gets faster at equal statistical quality. 0
	// keeps the classic fixed-N cells.
	TargetCI float64
	// Seed drives everything (default 1).
	Seed int64
	// Parallelism bounds concurrent trials (default GOMAXPROCS).
	Parallelism int
	// Progress, if non-nil, receives every campaign cell's progress
	// records (core.RunOptions.Progress: an initial record, one per
	// finished trial, a final one). Calls within one cell are serialized.
	Progress func(core.ShardProgress)
}

// Quick returns a scale suitable for tests: small but large enough for
// every qualitative conclusion to be stable under the fixed seed.
func Quick() Scale {
	return Scale{Trials: 60, Fig5aTrials: 400, Watchpoints: 300, Seed: 1}
}

// Report is one regenerated table or figure. The tags are the
// `tables -json` experiment schema.
type Report struct {
	// ID is the experiment identifier ("table1", "fig3", ...).
	ID string `json:"id"`
	// Title describes the experiment.
	Title string `json:"title"`
	// Text is the rendered table/figure, ready to print.
	Text string `json:"text"`
	// Comparisons hold paper-vs-measured rows for EXPERIMENTS.md (empty,
	// never nil, once returned by Suite.Run).
	Comparisons []Comparison `json:"comparisons"`
}

// Comparison is one paper-vs-measured data point.
type Comparison struct {
	Metric   string `json:"metric"`
	Paper    string `json:"paper"`
	Measured string `json:"measured"`
	Note     string `json:"note,omitempty"`
}

// Suite lazily prepares the three applications once (core.Prepare) and
// shares them across experiments.
type Suite struct {
	scale Scale

	mu        sync.Mutex
	apps      map[string]*appEntry
	campaigns map[string]*core.CampaignResult
}

// appEntry caches a builder and its prepared build, which every cell runs on.
type appEntry struct {
	builder  apps.Builder
	prepared *core.Prepared
}

// NewSuite creates a suite at the given scale, filling in the defaults.
func NewSuite(scale Scale) (*Suite, error) {
	if scale.Trials < 0 {
		return nil, fmt.Errorf("experiments: trials must be positive, got %d", scale.Trials)
	}
	if scale.TargetCI < 0 || scale.TargetCI >= 1 {
		return nil, fmt.Errorf("experiments: TargetCI must be in [0, 1), got %g", scale.TargetCI)
	}
	if scale.Trials == 0 {
		scale.Trials = 400
	}
	if scale.Fig5aTrials <= 0 {
		scale.Fig5aTrials = 3 * scale.Trials
	}
	if scale.Watchpoints <= 0 {
		scale.Watchpoints = 1590
	}
	if scale.Seed == 0 {
		scale.Seed = 1
	}
	return &Suite{scale: scale, apps: make(map[string]*appEntry)}, nil
}

// Scale returns the suite's scale.
func (s *Suite) Scale() Scale { return s.scale }

// NewBuilder constructs the builder of one case-study application (see
// AppNames) at a workload size; each application package owns its
// geometry per size. Errors carry no package prefix: callers add theirs.
func NewBuilder(name string, size apps.Size, seed int64) (apps.Builder, error) {
	switch name {
	case "websearch":
		cfg, err := websearch.SizedConfig(size, seed)
		if err != nil {
			return nil, err
		}
		return websearch.NewBuilder(cfg)
	case "kvstore":
		cfg, err := kvstore.SizedConfig(size, seed)
		if err != nil {
			return nil, err
		}
		return kvstore.NewBuilder(cfg)
	case "graphmine":
		cfg, err := graphmine.SizedConfig(size, seed)
		if err != nil {
			return nil, err
		}
		return graphmine.NewBuilder(cfg)
	default:
		return nil, fmt.Errorf("unknown application %q", name)
	}
}

// app returns the cached builder and prepared build for one of AppNames,
// built at apps.SizeMedium with no warm-up.
func (s *Suite) app(name string) (*appEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.apps[name]; ok {
		return e, nil
	}
	b, err := NewBuilder(name, apps.SizeMedium, s.scale.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: building %s: %w", name, err)
	}
	prepared, err := core.Prepare(b, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: preparing %s: %w", name, err)
	}
	e := &appEntry{builder: b, prepared: prepared}
	s.apps[name] = e
	return e, nil
}

// profile returns one application's prepared build and the record of its
// fault-free window: the regions every experiment lists, and what Fig. 5b
// and Table 5 measure.
func (s *Suite) profile(name string) (*appEntry, *monitor.Profile, error) {
	entry, err := s.app(name)
	if err != nil {
		return nil, nil, err
	}
	rec := entry.prepared.Profile()
	if rec == nil {
		return nil, nil, fmt.Errorf("experiments: the prepared %s build kept no access profile", name)
	}
	return entry, rec, nil
}

// AppNames lists the case-study applications in paper order.
func AppNames() []string { return []string{"websearch", "kvstore", "graphmine"} }

// paperAppLabel maps internal names to the paper's workload names.
func paperAppLabel(name string) string {
	switch name {
	case "websearch":
		return "WebSearch"
	case "kvstore":
		return "Memcached"
	case "graphmine":
		return "GraphLab"
	default:
		return name
	}
}

// IDs lists every experiment in paper order.
func IDs() []string {
	return []string{
		"table1", "table3", "table4", "fig3", "fig4", "fig5a", "fig5b",
		"fig6", "table5", "table6", "fig8", "fig9",
	}
}

// Run dispatches one experiment by ID.
func (s *Suite) Run(id string) (*Report, error) {
	rep, err := s.generate(id)
	if err != nil {
		return nil, err
	}
	if rep.Comparisons == nil {
		rep.Comparisons = []Comparison{}
	}
	return rep, nil
}

// generate runs the experiment's generator.
func (s *Suite) generate(id string) (*Report, error) {
	switch id {
	case "table1":
		return s.Table1()
	case "table3":
		return s.Table3()
	case "table4":
		return s.Table4()
	case "fig3":
		return s.Figure3()
	case "fig4":
		return s.Figure4()
	case "fig5a":
		return s.Figure5a()
	case "fig5b":
		return s.Figure5b()
	case "fig6":
		return s.Figure6()
	case "table5":
		return s.Table5()
	case "table6":
		return s.Table6()
	case "fig8":
		return s.Figure8()
	case "fig9":
		return s.Figure9()
	default:
		return s.runExtension(id)
	}
}
