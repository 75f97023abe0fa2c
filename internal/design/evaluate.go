package design

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hrmsim/internal/ecc"
	"hrmsim/internal/faults"
)

// Evaluation is one evaluated design point — one row of Table 6 (right).
// The tags are the `designspace -json` / `plan -json` row schema.
type Evaluation struct {
	Name string `json:"name"`
	// MemorySavings is the memory cost saving vs the all-SEC-DED
	// baseline (mid estimate), with Lo/Hi spanning the less-tested
	// pricing band.
	MemorySavings   float64 `json:"memory_savings"`
	MemorySavingsLo float64 `json:"memory_savings_lo"`
	MemorySavingsHi float64 `json:"memory_savings_hi"`
	// ServerSavings is the server hardware cost saving (memory savings
	// × DRAM share).
	ServerSavings   float64 `json:"server_savings"`
	ServerSavingsLo float64 `json:"server_savings_lo"`
	ServerSavingsHi float64 `json:"server_savings_hi"`
	// CrashesPerMonth is the expected memory-error-induced crash rate.
	CrashesPerMonth float64 `json:"crashes_per_month"`
	// Availability is single server availability considering only
	// memory errors.
	Availability float64 `json:"availability"`
	// IncorrectPerMillion is the rate of incorrect responses per
	// million queries while operational.
	IncorrectPerMillion float64 `json:"incorrect_per_million"`
	// MeetsTarget reports Availability >= Params.TargetAvailability.
	MeetsTarget bool `json:"meets_target"`
}

// techniqueCorrects reports whether a technique corrects the single-bit
// errors of the Table 6 error model.
func techniqueCorrects(t ecc.Technique) bool {
	switch t {
	case ecc.TechSECDED, ecc.TechDECTED, ecc.TechChipkill, ecc.TechRAIM, ecc.TechMirroring:
		return true
	default:
		return false
	}
}

// residuals returns the fraction of a region's unprotected crash and
// incorrect rates that survive a mapping, plus any additional crash
// probability from detected-but-unrecoverable machine checks.
func residuals(p Params, m Mapping) (crashFrac, incorrectFrac, mcePerErr float64, err error) {
	switch {
	case techniqueCorrects(m.Technique):
		// Correcting codes absorb single-bit errors entirely; on
		// less-tested devices a small fraction of errors are multi-bit
		// patterns that surface as fatal machine checks.
		if m.LessTested {
			return 0, 0, p.MCEscapeLessTested, nil
		}
		return 0, 0, 0, nil
	case m.Technique == ecc.TechParity:
		if m.Response == RespCorrect {
			// Par+R: detected errors are recovered from persistent
			// storage; small residuals for recovery failures and
			// stale checkpoint windows.
			return p.ParRCrashResidual, p.ParRIncorrectResidual, 0, nil
		}
		// Parity without software correction turns every consumed
		// error into a detected-uncorrectable stop: at least as many
		// crashes as no protection, but no silent wrong answers.
		return 1, 0, 0, nil
	case m.Technique == ecc.TechNone:
		if m.Response == RespCorrect {
			return 0, 0, 0, fmt.Errorf("design: software correction requires a detecting technique (got NoECC)")
		}
		return 1, 1, 0, nil
	default:
		return 0, 0, 0, fmt.Errorf("design: unsupported technique %v", m.Technique)
	}
}

// memorySaving returns the cost saving of one region's mapping relative to
// the fully tested SEC-DED baseline, at the given less-tested saving.
func memorySaving(p Params, m Mapping, ltSaving float64) (float64, error) {
	spec, err := ecc.SpecFor(m.Technique)
	if err != nil {
		return 0, err
	}
	cost := (1 + spec.AddedCapacity) / (1 + p.BaselineOverhead)
	if m.LessTested {
		cost *= 1 - ltSaving
	}
	return 1 - cost, nil
}

// Evaluate computes one Table 6 row for a design point over the given
// region inputs.
func Evaluate(p Params, inputs []RegionInput, d DesignPoint) (Evaluation, error) {
	if err := p.Validate(); err != nil {
		return Evaluation{}, err
	}
	if len(inputs) == 0 {
		return Evaluation{}, fmt.Errorf("design: no region inputs")
	}
	var shareSum float64
	for _, in := range inputs {
		shareSum += in.Share
	}
	if math.Abs(shareSum-1) > 0.01 {
		return Evaluation{}, fmt.Errorf("design: region shares sum to %g, want 1", shareSum)
	}

	ev := Evaluation{Name: d.Name}
	var crashes, incorrect float64
	for _, in := range inputs {
		m, ok := d.Regions[in.Name]
		if !ok {
			return Evaluation{}, fmt.Errorf("design: point %q has no mapping for region %q", d.Name, in.Name)
		}
		rate := p.ErrorsPerMonth
		if m.LessTested {
			rate *= p.LessTestedRateFactor
		}
		cf, inf, mce, err := residuals(p, m)
		if err != nil {
			return Evaluation{}, err
		}
		crashes += rate * in.Share * (in.CrashProb*cf + mce)
		incorrect += rate * in.Share * in.IncorrectPerErr * inf

		for i, lt := range []float64{p.LessTestedSaving, p.LessTestedSaving - p.LessTestedBand, p.LessTestedSaving + p.LessTestedBand} {
			s, err := memorySaving(p, m, lt)
			if err != nil {
				return Evaluation{}, err
			}
			switch i {
			case 0:
				ev.MemorySavings += in.Share * s
			case 1:
				ev.MemorySavingsLo += in.Share * s
			case 2:
				ev.MemorySavingsHi += in.Share * s
			}
		}
	}
	ev.ServerSavings = ev.MemorySavings * p.DRAMShareOfServer
	ev.ServerSavingsLo = ev.MemorySavingsLo * p.DRAMShareOfServer
	ev.ServerSavingsHi = ev.MemorySavingsHi * p.DRAMShareOfServer
	ev.CrashesPerMonth = crashes
	ev.Availability = AvailabilityFor(crashes, p.CrashRecovery)
	ev.IncorrectPerMillion = incorrect
	ev.MeetsTarget = ev.Availability >= p.TargetAvailability
	return ev, nil
}

// AvailabilityFor converts a crash rate into single server availability:
// each crash costs one recovery period of downtime per month.
func AvailabilityFor(crashesPerMonth float64, recovery time.Duration) float64 {
	downtime := crashesPerMonth * recovery.Minutes()
	monthMinutes := faults.Month.Minutes()
	a := 1 - downtime/monthMinutes
	if a < 0 {
		return 0
	}
	return a
}

// TolerableErrors returns the maximum memory errors per month an
// unprotected deployment of an application can sustain while meeting an
// availability target (the Fig. 8 curves): the downtime budget divided by
// the expected downtime per error.
func TolerableErrors(p Params, overallCrashProb, targetAvailability float64) (float64, error) {
	if overallCrashProb <= 0 || overallCrashProb > 1 {
		return 0, fmt.Errorf("design: crash probability %g outside (0,1]", overallCrashProb)
	}
	if targetAvailability <= 0 || targetAvailability >= 1 {
		return 0, fmt.Errorf("design: target availability %g outside (0,1)", targetAvailability)
	}
	allowedCrashes := (1 - targetAvailability) * faults.Month.Minutes() / p.CrashRecovery.Minutes()
	return allowedCrashes / overallCrashProb, nil
}

// The five Table 6 design points.

// TypicalServer protects everything with SEC-DED on tested DRAM.
func TypicalServer() DesignPoint {
	return uniformPoint("Typical Server", Mapping{Technique: ecc.TechSECDED, Response: RespRetire})
}

// ConsumerPC uses no protection anywhere.
func ConsumerPC() DesignPoint {
	return uniformPoint("Consumer PC", Mapping{Technique: ecc.TechNone, Response: RespConsume})
}

// DetectRecover protects the private region with parity + software
// recovery (Par+R) and leaves the rest unprotected.
func DetectRecover() DesignPoint {
	return DesignPoint{
		Name: "Detect&Recover",
		Regions: map[string]Mapping{
			"private": {Technique: ecc.TechParity, Response: RespCorrect},
			"heap":    {Technique: ecc.TechNone, Response: RespConsume},
			"stack":   {Technique: ecc.TechNone, Response: RespConsume},
		},
	}
}

// LessTested uses unprotected less-tested DRAM throughout.
func LessTested() DesignPoint {
	return uniformPoint("Less-Tested (L)", Mapping{Technique: ecc.TechNone, Response: RespConsume, LessTested: true})
}

// DetectRecoverL runs on less-tested DRAM with ECC on the private region,
// Par+R on the heap, and nothing on the stack.
func DetectRecoverL() DesignPoint {
	return DesignPoint{
		Name: "Detect&Recover/L",
		Regions: map[string]Mapping{
			"private": {Technique: ecc.TechSECDED, Response: RespRetire, LessTested: true},
			"heap":    {Technique: ecc.TechParity, Response: RespCorrect, LessTested: true},
			"stack":   {Technique: ecc.TechNone, Response: RespConsume, LessTested: true},
		},
	}
}

// Table6Points returns the five evaluated design points in Table 6 order.
func Table6Points() []DesignPoint {
	return []DesignPoint{
		TypicalServer(), ConsumerPC(), DetectRecover(), LessTested(), DetectRecoverL(),
	}
}

// uniformPoint maps every region identically.
func uniformPoint(name string, m Mapping) DesignPoint {
	return DesignPoint{
		Name: name,
		Regions: map[string]Mapping{
			"private": m, "heap": m, "stack": m,
		},
	}
}

// CandidateTechniques returns the per-region techniques a design-space
// search considers by default: no protection, parity with software
// recovery, and SEC-DED.
func CandidateTechniques() []ecc.Technique {
	return []ecc.Technique{ecc.TechNone, ecc.TechParity, ecc.TechSECDED}
}

// EnumeratePoints generates the full cross-product of candidate mappings
// per region over the given techniques, for design-space exploration
// beyond the five published points. Software responses are chosen
// automatically: Par+R for parity, retirement for correcting codes,
// consume otherwise. Points are returned in deterministic order.
func EnumeratePoints(regions []string, techniques []ecc.Technique, lessTested []bool) []DesignPoint {
	type option struct {
		m Mapping
	}
	var options []option
	for _, t := range techniques {
		for _, lt := range lessTested {
			m := Mapping{Technique: t, LessTested: lt}
			switch {
			case t == ecc.TechParity:
				m.Response = RespCorrect
			case techniqueCorrects(t):
				m.Response = RespRetire
			default:
				m.Response = RespConsume
			}
			options = append(options, option{m: m})
		}
	}
	var out []DesignPoint
	total := 1
	for range regions {
		total *= len(options)
	}
	for idx := 0; idx < total; idx++ {
		d := DesignPoint{Regions: make(map[string]Mapping, len(regions))}
		rem := idx
		var nameParts []string
		for _, r := range regions {
			opt := options[rem%len(options)]
			rem /= len(options)
			d.Regions[r] = opt.m
			suffix := ""
			if opt.m.LessTested {
				suffix = "/L"
			}
			nameParts = append(nameParts, fmt.Sprintf("%s=%s%s", r, opt.m.Technique, suffix))
		}
		sort.Strings(nameParts)
		d.Name = fmt.Sprintf("point-%d", idx)
		out = append(out, d)
	}
	return out
}

// Frontier filters evaluations to those meeting the availability target,
// sorted by descending server cost savings — the candidates a datacenter
// operator would pick from.
func Frontier(evals []Evaluation) []Evaluation {
	var out []Evaluation
	for _, e := range evals {
		if e.MeetsTarget {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ServerSavings != out[j].ServerSavings {
			return out[i].ServerSavings > out[j].ServerSavings
		}
		return out[i].Name < out[j].Name
	})
	return out
}
