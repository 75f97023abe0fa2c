// Package lifetime simulates continuous server operation under a memory
// error arrival process: the workload loops on the virtual clock, errors
// arrive per a faults.RateModel, crashes cost a recovery period and
// reboot the application, and availability plus incorrect-response rates
// are accounted directly — validating the design package's analytic
// Table 6 model by simulation, and implementing the paper's stated future
// work of "further evaluating the heterogeneous hardware detection and
// software recovery designs".
//
// Reboots model a real machine: transient (soft) errors vanish with the
// old memory image, but hard faults are physical — their stuck-at state is
// re-applied to the fresh instance at the same region offsets.
package lifetime

import (
	"fmt"
	"math/rand"
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/core"
	"hrmsim/internal/faults"
	"hrmsim/internal/inject"
	"hrmsim/internal/simmem"
)

// Config configures a lifetime simulation.
type Config struct {
	// Builder constructs application instances. The workload must be
	// idempotent across passes (the web search application is; see the
	// package tests), because responses are compared against one golden
	// pass.
	Builder apps.Builder
	// Rates is the error arrival model (e.g. 2000/month).
	Rates faults.RateModel
	// Horizon is the simulated operation period (default one month).
	Horizon time.Duration
	// RecoveryTime is the downtime per crash (Table 6: 10 minutes); zero
	// means a crash costs no downtime.
	RecoveryTime time.Duration
	// Seed drives arrivals and injection placement.
	Seed int64
	// Attach, if set, is called on every fresh instance (including
	// after reboots) to install recovery machinery — checkpointers,
	// page retirers — before it serves.
	Attach func(app apps.App) error
	// MaxErrors caps injected errors as a runaway guard (default: no
	// cap beyond the arrival process).
	MaxErrors int
}

// Result summarizes a simulated lifetime.
type Result struct {
	// ErrorsInjected counts error arrivals applied.
	ErrorsInjected int
	// Crashes counts application/system crashes.
	Crashes int
	// Reboots equals Crashes (each crash costs one recovery).
	Reboots int
	// Downtime is the accumulated recovery time.
	Downtime time.Duration
	// Availability is uptime/(uptime+downtime) over the horizon.
	Availability float64
	// Requests and Incorrect count served responses and wrong ones.
	Requests, Incorrect int
	// IncorrectPerMillion is the incorrect rate while operational.
	IncorrectPerMillion float64
}

// hardFault records a persistent fault so it survives reboots.
type hardFault struct {
	regionName string
	offset     int
	bit        int
	value      int
}

// Simulate runs the lifetime simulation.
func Simulate(cfg Config) (Result, error) {
	if cfg.Builder == nil {
		return Result{}, fmt.Errorf("lifetime: builder is required")
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = faults.Month
	}
	if cfg.Horizon <= 0 {
		return Result{}, fmt.Errorf("lifetime: horizon must be positive")
	}
	if cfg.RecoveryTime < 0 {
		return Result{}, fmt.Errorf("lifetime: recovery time must not be negative")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	golden, err := core.GoldenRun(cfg.Builder)
	if err != nil {
		return Result{}, err
	}
	arrivals, err := cfg.Rates.Arrivals(rng, cfg.Horizon)
	if err != nil {
		return Result{}, err
	}
	if cfg.MaxErrors > 0 && len(arrivals) > cfg.MaxErrors {
		arrivals = arrivals[:cfg.MaxErrors]
	}

	var res Result
	var hardFaults []hardFault

	boot := func() (apps.App, error) {
		app, err := cfg.Builder.Build()
		if err != nil {
			return nil, err
		}
		// Physical stuck-at faults persist across the reboot.
		for _, hf := range hardFaults {
			r := app.Space().RegionByName(hf.regionName)
			if r == nil {
				continue
			}
			if err := app.Space().StickBit(r.Base()+simmem.Addr(hf.offset), hf.bit, hf.value); err != nil {
				return nil, err
			}
		}
		if cfg.Attach != nil {
			if err := cfg.Attach(app); err != nil {
				return nil, err
			}
		}
		return app, nil
	}

	app, err := boot()
	if err != nil {
		return Result{}, err
	}
	clock := app.Space().Clock()
	nextArrival := 0
	q := 0

	for clock.Now() < cfg.Horizon {
		// Apply every error that has arrived by now.
		for nextArrival < len(arrivals) && arrivals[nextArrival].At <= clock.Now() {
			a := arrivals[nextArrival]
			nextArrival++
			inj, err := inject.Random(app.Space(), rng, a.Spec, nil)
			if err != nil {
				return Result{}, fmt.Errorf("lifetime: injecting arrival %d: %w", nextArrival-1, err)
			}
			res.ErrorsInjected++
			if a.Spec.Class == faults.Hard {
				for _, tgt := range inj.Targets {
					off := int(tgt.Addr - inj.Region.Base())
					var raw [1]byte
					if err := app.Space().ReadRaw(tgt.Addr, raw[:]); err != nil {
						return Result{}, err
					}
					for _, bit := range tgt.Bits {
						// StickBit in inject set the cell to the
						// flipped value; record that value.
						v := int(raw[0]>>bit&1) ^ 1
						hardFaults = append(hardFaults, hardFault{
							regionName: inj.Region.Name(),
							offset:     off,
							bit:        bit,
							value:      v,
						})
					}
				}
			}
		}

		resp, err := serveGuarded(app, q)
		if err != nil {
			if !apps.IsCrash(err) {
				return Result{}, fmt.Errorf("lifetime: request %d: %w", q, err)
			}
			// Crash: pay the recovery time and reboot.
			res.Crashes++
			res.Reboots++
			res.Downtime += cfg.RecoveryTime
			now := clock.Now() + cfg.RecoveryTime
			app, err = boot()
			if err != nil {
				return Result{}, err
			}
			clock = app.Space().Clock()
			clock.Set(now)
			q = 0 // the restarted server begins its workload cycle anew
			continue
		}
		res.Requests++
		if resp.Digest != golden[q] {
			res.Incorrect++
		}
		q = (q + 1) % len(golden)
	}

	// Downtime elapses on the same clock the horizon bounds, so the
	// horizon is total wall time.
	res.Availability = 1 - float64(res.Downtime)/float64(cfg.Horizon)
	if res.Availability < 0 {
		res.Availability = 0
	}
	if res.Requests > 0 {
		res.IncorrectPerMillion = float64(res.Incorrect) / float64(res.Requests) * 1e6
	}
	return res, nil
}

// serveGuarded converts panics into crash-worthy errors.
func serveGuarded(app apps.App, q int) (resp apps.Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = apps.Assertf("panic serving request %d: %v", q, r)
		}
	}()
	return app.Serve(q)
}
