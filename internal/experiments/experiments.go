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
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/apps/graphmine"
	"hrmsim/internal/apps/kvstore"
	"hrmsim/internal/apps/websearch"
	"hrmsim/internal/core"
)

// Scale controls how much work the campaign-backed experiments do.
type Scale struct {
	// Trials is the number of injection trials per campaign cell.
	Trials int
	// Fig5aTrials is the (larger) trial count for the time-to-outcome
	// distribution, which needs many crash/incorrect samples.
	Fig5aTrials int
	// Watchpoints is the address sample size for safe-ratio and
	// recoverability analysis.
	Watchpoints int
	// TargetCI, when positive, runs campaign cells under the adaptive
	// planner (Wilson CI half-width target on the crash probability at
	// level 0.90, Trials as the hard budget). 0 keeps fixed-N cells.
	TargetCI float64
	// Seed drives everything.
	Seed int64
	// Parallelism caps concurrent trials (0 = GOMAXPROCS).
	Parallelism int
	// Progress, if non-nil, is forwarded to every campaign the suite
	// runs (see core.CampaignConfig.Progress).
	Progress func(core.ProgressInfo)
}

// Quick returns a scale suitable for tests: small but large enough for
// every qualitative conclusion to be stable under the fixed seed.
func Quick() Scale {
	return Scale{Trials: 60, Fig5aTrials: 400, Watchpoints: 300, Seed: 1}
}

// Default returns the scale used by the CLI and benchmarks.
func Default() Scale {
	return Scale{Trials: 400, Fig5aTrials: 1200, Watchpoints: 1590, Seed: 1}
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

// Suite lazily builds the three applications (with goldens) once and
// shares them across experiments.
type Suite struct {
	scale Scale

	mu        sync.Mutex
	apps      map[string]*appEntry
	campaigns map[string]*core.CampaignResult
}

// appEntry caches a builder and its golden run.
type appEntry struct {
	builder apps.Builder
	golden  []uint64
}

// NewSuite creates a suite at the given scale.
func NewSuite(scale Scale) (*Suite, error) {
	if scale.Trials <= 0 {
		return nil, fmt.Errorf("experiments: trials must be positive, got %d", scale.Trials)
	}
	if scale.Fig5aTrials <= 0 {
		scale.Fig5aTrials = scale.Trials
	}
	if scale.Watchpoints <= 0 {
		scale.Watchpoints = 300
	}
	return &Suite{scale: scale, apps: make(map[string]*appEntry)}, nil
}

// Scale returns the suite's scale.
func (s *Suite) Scale() Scale { return s.scale }

// wsConfig is the experiment-scale WebSearch configuration.
func (s *Suite) wsConfig() websearch.Config {
	cfg := websearch.DefaultConfig(s.scale.Seed)
	cfg.Docs = 1024
	cfg.Vocab = 512
	cfg.MinTerms = 6
	cfg.MaxTerms = 24
	cfg.Queries = 120
	cfg.CacheSlots = 256
	// Spread the workload over ~20 virtual minutes, comparable to the
	// paper's observation windows (Fig. 5a, the 5-minute flush rule).
	cfg.RequestCost = 10 * time.Second
	return cfg
}

// kvConfig is the experiment-scale kvstore configuration.
func (s *Suite) kvConfig() kvstore.Config {
	cfg := kvstore.DefaultConfig(s.scale.Seed)
	cfg.Keys = 512
	cfg.Ops = 600
	cfg.RequestCost = 2 * time.Second // ~20 virtual minutes per run
	return cfg
}

// gmConfig is the experiment-scale graphmine configuration.
func (s *Suite) gmConfig() graphmine.Config {
	cfg := graphmine.DefaultConfig(s.scale.Seed)
	cfg.Nodes = 512
	cfg.AvgDeg = 6
	cfg.Iterations = 3
	cfg.ChunkNodes = 128
	cfg.TopK = 50
	cfg.RequestCost = 90 * time.Second // ~20 virtual minutes per run
	return cfg
}

// app returns the cached builder+golden for one of "websearch",
// "kvstore", "graphmine".
func (s *Suite) app(name string) (*appEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.apps[name]; ok {
		return e, nil
	}
	var (
		b   apps.Builder
		err error
	)
	switch name {
	case "websearch":
		b, err = websearch.NewBuilder(s.wsConfig())
	case "kvstore":
		b, err = kvstore.NewBuilder(s.kvConfig())
	case "graphmine":
		b, err = graphmine.NewBuilder(s.gmConfig())
	default:
		return nil, fmt.Errorf("experiments: unknown application %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: building %s: %w", name, err)
	}
	golden, err := core.GoldenRun(b)
	if err != nil {
		return nil, fmt.Errorf("experiments: golden run for %s: %w", name, err)
	}
	e := &appEntry{builder: b, golden: golden}
	s.apps[name] = e
	return e, nil
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
