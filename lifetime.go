package hrmsim

import (
	"fmt"
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/apps/websearch"
	"hrmsim/internal/ecc"
	"hrmsim/internal/faults"
	"hrmsim/internal/lifetime"
	"hrmsim/internal/recovery"
)

// Protection names a preset hardware/software reliability configuration
// for lifetime simulation.
type Protection string

// Protection presets.
const (
	// ProtectNone: no detection or correction anywhere (Consumer PC).
	ProtectNone Protection = "none"
	// ProtectParR is the paper's Detect&Recover mapping: parity with
	// Par+R software recovery on the backed read-only index, nothing on
	// the heap and stack. (Parity without a recovery path would turn
	// tolerable errors into machine-check crashes — detection is only
	// worth paying for where software can act on it.)
	ProtectParR Protection = "parity+r"
	// ProtectSECDED: SEC-DED everywhere, no scrubbing (Typical Server
	// without patrol scrub).
	ProtectSECDED Protection = "secded"
	// ProtectSECDEDScrub: SEC-DED everywhere plus a 5-minute patrol
	// scrubber with retirement (a production Typical Server).
	ProtectSECDEDScrub Protection = "secded+scrub"
)

// Protections lists the presets.
func Protections() []Protection {
	return []Protection{ProtectNone, ProtectParR, ProtectSECDED, ProtectSECDEDScrub}
}

// LifetimeConfig configures a continuous-operation simulation.
type LifetimeConfig struct {
	// App selects the workload. Only AppWebSearch is supported: the
	// simulation loops the workload, which requires idempotent request
	// handling (the key–value store mutates state across passes).
	App App
	// Protection is the reliability preset (default ProtectNone).
	Protection Protection
	// ErrorsPerMonth is the arrival rate; zero injects no errors.
	// Remember the simulated applications are ~10^6x smaller than
	// production ones, so observable effects need amplified rates (the
	// field rate of Table 6 is 2000).
	ErrorsPerMonth float64
	// SoftFraction is the share of transient errors, in [0,1]: 1 makes
	// every error soft, zero makes every error hard.
	SoftFraction float64
	// Hours is the simulated operation period; it must be positive.
	Hours int
	// RecoveryMinutes is the downtime per crash (Table 6 uses 10); zero
	// means a crash costs no downtime.
	RecoveryMinutes int
	// Size selects the workload scale (default SizeSmall — lifetime
	// runs serve tens of thousands of requests).
	Size WorkloadSize
	// Seed drives arrivals and placement (default 1).
	Seed int64
}

// LifetimeResult summarizes a simulated lifetime. Its tags are the
// `lifetime -json` result fields after the echoed flags.
type LifetimeResult struct {
	ErrorsInjected      int     `json:"errors_injected"`
	Crashes             int     `json:"crashes"`
	DowntimeMinutes     float64 `json:"downtime_minutes"`
	Availability        float64 `json:"availability"`
	Requests            int     `json:"requests"`
	Incorrect           int     `json:"incorrect"`
	IncorrectPerMillion float64 `json:"incorrect_per_million"`
	// ScrubPasses and ScrubCorrected report patrol-scrub activity (for
	// the scrubbing presets).
	ScrubPasses    int `json:"scrub_passes"`
	ScrubCorrected int `json:"scrub_corrected"`
}

// SimulateLifetime runs the application continuously under a memory error
// arrival process, counting crashes (each costing a recovery reboot, with
// hard faults persisting across reboots), downtime, and incorrect
// responses — the direct-simulation counterpart of the Table 6 analytic
// model.
func SimulateLifetime(cfg LifetimeConfig) (*LifetimeResult, error) {
	if cfg.App == "" {
		cfg.App = AppWebSearch
	}
	if cfg.App != AppWebSearch {
		return nil, fmt.Errorf("hrmsim: lifetime simulation supports only %q (the workload must be idempotent across passes)", AppWebSearch)
	}
	if cfg.Protection == "" {
		cfg.Protection = ProtectNone
	}
	if cfg.Hours <= 0 {
		return nil, fmt.Errorf("hrmsim: Hours (-hours) must be positive, got %d", cfg.Hours)
	}
	if cfg.RecoveryMinutes < 0 {
		return nil, fmt.Errorf("hrmsim: RecoveryMinutes (-recovery) must not be negative, got %d", cfg.RecoveryMinutes)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}

	wcfg, err := websearch.SizedConfig(cfg.Size, cfg.Seed)
	if err != nil || cfg.Size == SizeLarge {
		return nil, fmt.Errorf("hrmsim: lifetime simulation supports SizeSmall or SizeMedium")
	}

	var scrubbers []*recovery.PeriodicScrubber
	var attach func(app apps.App) error
	switch cfg.Protection {
	case ProtectNone:
	case ProtectParR:
		wcfg.PrivateCodec = ecc.NewParity()
		wcfg.PrivateMC = &recovery.ParR{}
	case ProtectSECDED, ProtectSECDEDScrub:
		wcfg.PrivateCodec = ecc.NewSECDED()
		wcfg.HeapCodec = ecc.NewSECDED()
		wcfg.StackCodec = ecc.NewSECDED()
		if cfg.Protection == ProtectSECDEDScrub {
			attach = func(app apps.App) error {
				sc, err := recovery.NewPeriodicScrubber(5*time.Minute, app.Space().Regions()...)
				if err != nil {
					return err
				}
				sc.RetireThreshold = 4
				scrubbers = append(scrubbers, sc)
				app.Space().AddAccessObserver(sc)
				return nil
			}
		}
	default:
		return nil, fmt.Errorf("hrmsim: unknown protection %q (known: %v)", cfg.Protection, Protections())
	}

	b, err := websearch.NewBuilder(wcfg)
	if err != nil {
		return nil, err
	}
	res, err := lifetime.Simulate(lifetime.Config{
		Builder: b,
		Rates: faults.RateModel{
			ErrorsPerMonth:       cfg.ErrorsPerMonth,
			SoftFraction:         cfg.SoftFraction,
			LessTestedMultiplier: 1,
		},
		Horizon:      time.Duration(cfg.Hours) * time.Hour,
		RecoveryTime: time.Duration(cfg.RecoveryMinutes) * time.Minute,
		Seed:         cfg.Seed,
		Attach:       attach,
	})
	if err != nil {
		return nil, err
	}
	out := &LifetimeResult{
		ErrorsInjected:      res.ErrorsInjected,
		Crashes:             res.Crashes,
		DowntimeMinutes:     res.Downtime.Minutes(),
		Availability:        res.Availability,
		Requests:            res.Requests,
		Incorrect:           res.Incorrect,
		IncorrectPerMillion: res.IncorrectPerMillion,
	}
	for _, sc := range scrubbers {
		out.ScrubPasses += sc.Passes
		out.ScrubCorrected += sc.Corrected
	}
	return out, nil
}
