package hrmsim

import (
	"fmt"

	"hrmsim/internal/design"
)

// DesignRow is one evaluated heterogeneous-reliability design point — one
// row of the paper's Table 6.
type DesignRow struct {
	Name string `json:"name"`
	// MemorySavings is the memory cost saving fraction vs an all-ECC
	// server, with the less-tested pricing band.
	MemorySavings   float64 `json:"memory_savings"`
	MemorySavingsLo float64 `json:"memory_savings_lo"`
	MemorySavingsHi float64 `json:"memory_savings_hi"`
	// ServerSavings is the server hardware cost saving fraction.
	ServerSavings   float64 `json:"server_savings"`
	ServerSavingsLo float64 `json:"server_savings_lo"`
	ServerSavingsHi float64 `json:"server_savings_hi"`
	// CrashesPerMonth is the expected crash rate from memory errors.
	CrashesPerMonth float64 `json:"crashes_per_month"`
	// Availability is single server availability (0..1).
	Availability float64 `json:"availability"`
	// IncorrectPerMillion is the incorrect-response rate while up.
	IncorrectPerMillion float64 `json:"incorrect_per_million"`
	// MeetsTarget reports whether the 99.90% target is met.
	MeetsTarget bool `json:"meets_target"`
}

// RegionVulnerability is a region's measured vulnerability, the input to
// design-space evaluation. Obtain one per region from Characterize (crash
// probability and incorrect rate) or use PaperWebSearchVulnerability.
type RegionVulnerability struct {
	// Region is "private", "heap", or "stack".
	Region Region
	// Share is the region's fraction of application memory.
	Share float64
	// CrashProbability is P(crash | error) unprotected.
	CrashProbability float64
	// IncorrectPerError is incorrect responses per million queries
	// contributed by one resident error.
	IncorrectPerError float64
}

// PaperWebSearchVulnerability returns the WebSearch inputs derived from
// the paper's published characterization, which reproduce Table 6.
func PaperWebSearchVulnerability() []RegionVulnerability {
	var out []RegionVulnerability
	for _, in := range design.PaperWebSearchInputs() {
		out = append(out, RegionVulnerability{
			Region:            Region(in.Name),
			Share:             in.Share,
			CrashProbability:  in.CrashProb,
			IncorrectPerError: in.IncorrectPerErr,
		})
	}
	return out
}

// toInputs converts public vulnerabilities to internal inputs.
func toInputs(vs []RegionVulnerability) []design.RegionInput {
	out := make([]design.RegionInput, 0, len(vs))
	for _, v := range vs {
		out = append(out, design.RegionInput{
			Name:            string(v.Region),
			Share:           v.Share,
			CrashProb:       v.CrashProbability,
			IncorrectPerErr: v.IncorrectPerError,
		})
	}
	return out
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
	inputs := toInputs(vs)
	var rows []DesignRow
	for _, d := range design.Table6Points() {
		ev, err := design.Evaluate(params, inputs, d)
		if err != nil {
			return nil, err
		}
		rows = append(rows, rowFrom(ev))
	}
	return rows, nil
}

// rowFrom converts an internal evaluation.
func rowFrom(ev design.Evaluation) DesignRow {
	return DesignRow{
		Name:                ev.Name,
		MemorySavings:       ev.MemorySavings,
		MemorySavingsLo:     ev.MemorySavingsLo,
		MemorySavingsHi:     ev.MemorySavingsHi,
		ServerSavings:       ev.ServerSavings,
		ServerSavingsLo:     ev.ServerSavingsLo,
		ServerSavingsHi:     ev.ServerSavingsHi,
		CrashesPerMonth:     ev.CrashesPerMonth,
		Availability:        ev.Availability,
		IncorrectPerMillion: ev.IncorrectPerMillion,
		MeetsTarget:         ev.MeetsTarget,
	}
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

// PlanResult is the outcome of a design-space search.
type PlanResult struct {
	// Best is the cheapest design meeting the target.
	Best DesignRow
	// BestMapping describes the chosen per-region techniques.
	BestMapping map[string]string
	// Considered is the number of design points evaluated.
	Considered int
	// Feasible is the number meeting the target.
	Feasible int
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
	inputs := toInputs(cfg.Vulnerabilities)
	var regions []string
	for _, in := range inputs {
		regions = append(regions, in.Name)
	}
	points := design.EnumeratePoints(regions,
		design.CandidateTechniques(), []bool{false, true})
	var evals []design.Evaluation
	byName := make(map[string]design.DesignPoint, len(points))
	for _, d := range points {
		ev, err := design.Evaluate(params, inputs, d)
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
		Best:        rowFrom(best),
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
