package hrmsim

import (
	"fmt"

	"hrmsim/internal/design"
)

// DesignRow is one evaluated heterogeneous-reliability design point — one
// row of the paper's Table 6.
type DesignRow = design.Evaluation

// RegionVulnerability is a region's measured vulnerability, the input to
// design-space evaluation: Name is "private", "heap", or "stack". Obtain
// one per region from Characterize (crash probability and incorrect rate)
// or use PaperWebSearchVulnerability.
type RegionVulnerability = design.RegionInput

// PaperWebSearchVulnerability returns the WebSearch inputs derived from
// the paper's published characterization, which reproduce Table 6.
func PaperWebSearchVulnerability() []RegionVulnerability {
	return design.PaperWebSearchInputs()
}

// EvaluateTable6 evaluates the paper's five design points (Typical
// Server, Consumer PC, Detect&Recover, Less-Tested, Detect&Recover/L)
// over the given region vulnerabilities. Pass
// PaperWebSearchVulnerability() to reproduce the published table.
func EvaluateTable6(vs []RegionVulnerability) ([]DesignRow, error) {
	if len(vs) == 0 {
		return nil, fmt.Errorf("hrmsim: no region vulnerabilities supplied")
	}
	params := design.PaperParams()
	var rows []DesignRow
	for _, d := range design.Table6Points() {
		ev, err := design.Evaluate(params, vs, d)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ev)
	}
	return rows, nil
}

// PlanConfig configures a design-space search: find the cheapest
// heterogeneous mapping that meets an availability target for an
// application with the given measured vulnerabilities.
type PlanConfig struct {
	// Vulnerabilities are the per-region inputs (shares must sum to 1).
	Vulnerabilities []RegionVulnerability
	// TargetAvailability is the single-server goal (default 0.999).
	TargetAvailability float64
	// ErrorsPerMonth overrides the field error rate (default 2000).
	ErrorsPerMonth float64
}

// PlanResult is the outcome of a design-space search. Its tags are the
// `plan -json` result fields after the echoed flags.
type PlanResult struct {
	// Considered is the number of design points evaluated.
	Considered int `json:"considered"`
	// Feasible is the number meeting the target.
	Feasible int `json:"feasible"`
	// Best is the cheapest design meeting the target.
	Best DesignRow `json:"best"`
	// BestMapping describes the chosen per-region techniques.
	BestMapping map[string]string `json:"best_mapping"`
}

// Plan exhaustively searches per-region mappings over {NoECC, Parity+
// recovery, SEC-DED} × {tested, less-tested} and returns the cheapest
// design meeting the availability target — the paper's Fig. 7 workflow as
// an API call.
func Plan(cfg PlanConfig) (*PlanResult, error) {
	if len(cfg.Vulnerabilities) == 0 {
		return nil, fmt.Errorf("hrmsim: PlanConfig.Vulnerabilities is required")
	}
	params := design.PaperParams()
	if cfg.TargetAvailability != 0 {
		params.TargetAvailability = cfg.TargetAvailability
	}
	if cfg.ErrorsPerMonth != 0 {
		params.ErrorsPerMonth = cfg.ErrorsPerMonth
	}
	var regions []string
	for _, in := range cfg.Vulnerabilities {
		regions = append(regions, in.Name)
	}
	points := design.EnumeratePoints(regions,
		design.CandidateTechniques(), []bool{false, true})
	var evals []design.Evaluation
	byName := make(map[string]design.DesignPoint, len(points))
	for _, d := range points {
		ev, err := design.Evaluate(params, cfg.Vulnerabilities, d)
		if err != nil {
			return nil, err
		}
		evals = append(evals, ev)
		byName[d.Name] = d
	}
	frontier := design.Frontier(evals)
	if len(frontier) == 0 {
		return nil, fmt.Errorf("hrmsim: no design meets availability target %.4f", params.TargetAvailability)
	}
	best := frontier[0]
	mapping := make(map[string]string)
	for region, m := range byName[best.Name].Regions {
		label := m.Technique.String()
		if m.Technique.String() == "Parity" && m.Response == design.RespCorrect {
			label = "Parity+R"
		}
		if m.LessTested {
			label += "/less-tested"
		}
		mapping[region] = label
	}
	return &PlanResult{
		Best:        best,
		BestMapping: mapping,
		Considered:  len(points),
		Feasible:    len(frontier),
	}, nil
}

// Tolerable returns the maximum memory errors per month an application
// with the given overall crash probability can sustain unprotected while
// meeting an availability target (the Fig. 8 analysis).
func Tolerable(crashProbability, targetAvailability float64) (float64, error) {
	return design.TolerableErrors(design.PaperParams(), crashProbability, targetAvailability)
}

// PaperCrashProbabilities returns the per-application overall crash
// probabilities the paper's Fig. 8 analysis uses.
func PaperCrashProbabilities() map[string]float64 {
	return design.PaperAppOverallCrashProb()
}
