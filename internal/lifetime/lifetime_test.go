package lifetime

import (
	"testing"
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/apps/websearch"
	"hrmsim/internal/design"
	"hrmsim/internal/ecc"
	"hrmsim/internal/faults"
	"hrmsim/internal/recovery"
)

// wsBuilder returns a small WebSearch configured for lifetime runs.
func wsBuilder(t *testing.T, protect bool) apps.Builder {
	t.Helper()
	cfg := websearch.DefaultConfig(5)
	cfg.Docs, cfg.Vocab, cfg.MinTerms, cfg.MaxTerms = 256, 128, 4, 12
	cfg.Queries, cfg.CacheSlots = 60, 32
	cfg.RequestCost = 10 * time.Second
	if protect {
		cfg.PrivateCodec = ecc.NewSECDED()
		cfg.HeapCodec = ecc.NewSECDED()
		cfg.StackCodec = ecc.NewSECDED()
	}
	b, err := websearch.NewBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// day keeps test runtimes manageable while still injecting plenty of
// errors at amplified rates.
const day = 24 * time.Hour

func TestSimulateNoErrorsFullyAvailable(t *testing.T) {
	res, err := Simulate(Config{
		Builder: wsBuilder(t, false),
		Rates:   faults.RateModel{ErrorsPerMonth: 0, SoftFraction: 1, LessTestedMultiplier: 1},
		Horizon: day,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 0 || res.Downtime != 0 {
		t.Errorf("crashes/downtime without errors: %+v", res)
	}
	if res.Availability != 1 {
		t.Errorf("availability = %g, want 1", res.Availability)
	}
	if res.Incorrect != 0 {
		t.Errorf("incorrect responses without errors: %d", res.Incorrect)
	}
	if res.Requests < 8000 { // 86400s / 10s per request
		t.Errorf("requests = %d, expected about 8640", res.Requests)
	}
}

func TestSimulateHardErrorsCrashAndRecover(t *testing.T) {
	// A very aggressive hard-error rate on an unprotected server: the
	// stack and index eventually take stuck faults and the server
	// crash-loops but keeps recovering.
	res, err := Simulate(Config{
		Builder: wsBuilder(t, false),
		Rates: faults.RateModel{
			ErrorsPerMonth: 300000, SoftFraction: 0, LessTestedMultiplier: 1,
		},
		Horizon:      day,
		RecoveryTime: 10 * time.Minute,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorsInjected < 5000 {
		t.Errorf("errors injected = %d, expected about 10000", res.ErrorsInjected)
	}
	if res.Crashes == 0 {
		t.Error("no crashes under an extreme hard-error rate")
	}
	if res.Availability >= 1 {
		t.Error("availability unchanged despite crashes")
	}
	wantAvail := 1 - float64(res.Crashes)*(10*time.Minute).Minutes()/day.Minutes()
	if diff := res.Availability - wantAvail; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("availability accounting: got %g, want %g", res.Availability, wantAvail)
	}
	if res.Reboots != res.Crashes {
		t.Error("reboots != crashes")
	}
}

func TestSimulateECCWithScrubbingIsClean(t *testing.T) {
	// At error rates amplified to match the scaled-down memory,
	// independent single-bit soft errors accumulate in the read-only
	// index (nothing ever overwrites them) until two share a codeword
	// and defeat SEC-DED. A periodic scrubber removes them first:
	// SEC-DED + scrubbing should ride out a soft-error storm cleanly.
	rates := faults.RateModel{ErrorsPerMonth: 150000, SoftFraction: 1, LessTestedMultiplier: 1}
	unprot, err := Simulate(Config{
		Builder: wsBuilder(t, false), Rates: rates, Horizon: day, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var scrubbed *recovery.PeriodicScrubber
	prot, err := Simulate(Config{
		Builder: wsBuilder(t, true), Rates: rates, Horizon: day, Seed: 3,
		Attach: func(app apps.App) error {
			s, err := recovery.NewPeriodicScrubber(time.Minute, app.Space().Regions()...)
			if err != nil {
				return err
			}
			scrubbed = s
			app.Space().AddAccessObserver(s)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if prot.Crashes != 0 || prot.Incorrect != 0 {
		t.Errorf("SEC-DED+scrub server not clean: %d crashes, %d incorrect", prot.Crashes, prot.Incorrect)
	}
	if scrubbed == nil || scrubbed.Passes == 0 || scrubbed.Corrected == 0 {
		t.Errorf("scrubber idle: %+v", scrubbed)
	}
	if unprot.Crashes == 0 && unprot.Incorrect == 0 {
		t.Error("unprotected server unaffected; the comparison is vacuous")
	}
}

func TestSimulateECCWithoutScrubbingAccumulates(t *testing.T) {
	// The same storm without scrubbing: errors pile up in the never-
	// overwritten index until SEC-DED words go uncorrectable. This is
	// the scrubbing ablation — protection alone is not enough at high
	// rates.
	rates := faults.RateModel{ErrorsPerMonth: 150000, SoftFraction: 1, LessTestedMultiplier: 1}
	prot, err := Simulate(Config{
		Builder: wsBuilder(t, true), Rates: rates, Horizon: day, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prot.Crashes == 0 {
		t.Error("expected uncorrectable accumulation without scrubbing")
	}
}

func TestSimulateMatchesAnalyticModelShape(t *testing.T) {
	// The simulated availability should land in the same regime as the
	// design package's analytic estimate for an unprotected server: at
	// high hard-error rates both degrade; at zero errors both are 1.
	rates := faults.RateModel{ErrorsPerMonth: 600000, SoftFraction: 0, LessTestedMultiplier: 1}
	res, err := Simulate(Config{
		Builder: wsBuilder(t, false), Rates: rates, Horizon: day, Seed: 4, RecoveryTime: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Analytic: crashes = dailyErrors x P(crash per error). We don't
	// know P here exactly, but availability must be strictly below the
	// zero-error case and above zero.
	if res.Availability <= 0 || res.Availability >= 1 {
		t.Errorf("availability = %g, want in (0,1)", res.Availability)
	}
	if got := design.AvailabilityFor(float64(res.Crashes)*30, 10*time.Minute); got <= 0 {
		// Sanity-check the analytic helper accepts the simulated rate
		// (30x to scale a day to a month).
		t.Errorf("analytic availability = %g", got)
	}
}

func TestSimulateParRRecoversInsteadOfCrashing(t *testing.T) {
	// Parity + Par+R on the backed read-only index: detected errors are
	// recovered from the backing store, so soft errors in the private
	// region cause neither crashes nor wrong answers.
	cfg := websearch.DefaultConfig(6)
	cfg.Docs, cfg.Vocab, cfg.MinTerms, cfg.MaxTerms = 256, 128, 4, 12
	cfg.Queries, cfg.CacheSlots = 60, 32
	cfg.RequestCost = 10 * time.Second
	cfg.PrivateCodec = ecc.NewParity()
	cfg.PrivateMC = &recovery.ParR{}
	b, err := websearch.NewBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rates := faults.RateModel{ErrorsPerMonth: 150000, SoftFraction: 1, LessTestedMultiplier: 1}
	res, err := Simulate(Config{
		Builder: b,
		Rates:   rates,
		Horizon: day,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	handler := cfg.PrivateMC.(*recovery.ParR)
	if handler.Recoveries == 0 {
		t.Error("Par+R never recovered anything")
	}
	// The unprotected heap (result cache) still causes the residual
	// crashes/incorrect of the Detect&Recover design point; the
	// protected index must do markedly better than no protection.
	cfg2 := cfg
	cfg2.PrivateCodec = nil
	cfg2.PrivateMC = nil
	b2, err := websearch.NewBuilder(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Simulate(Config{Builder: b2, Rates: rates, Horizon: day, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incorrect >= base.Incorrect && res.Crashes >= base.Crashes &&
		(res.Incorrect+res.Crashes) >= (base.Incorrect+base.Crashes) {
		t.Errorf("Par+R no better than unprotected: %d/%d vs %d/%d (crashes/incorrect)",
			res.Crashes, res.Incorrect, base.Crashes, base.Incorrect)
	}
	if res.ErrorsInjected == 0 {
		t.Error("no errors injected")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(Config{}); err == nil {
		t.Error("missing builder accepted")
	}
	if _, err := Simulate(Config{Builder: wsBuilder(t, false), Horizon: -time.Hour}); err == nil {
		t.Error("negative horizon accepted")
	}
	if _, err := Simulate(Config{Builder: wsBuilder(t, false), RecoveryTime: -time.Minute}); err == nil {
		t.Error("negative recovery time accepted")
	}
}

func TestSimulateAttachHookRuns(t *testing.T) {
	attached := 0
	_, err := Simulate(Config{
		Builder: wsBuilder(t, false),
		Rates:   faults.RateModel{ErrorsPerMonth: 0, SoftFraction: 1, LessTestedMultiplier: 1},
		Horizon: time.Hour,
		Seed:    8,
		Attach: func(app apps.App) error {
			attached++
			if app.Space() == nil {
				t.Error("nil space in attach")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if attached == 0 {
		t.Error("attach hook never ran")
	}
}

func TestHardFaultsPersistAcrossReboot(t *testing.T) {
	// Inject hard errors at an extreme rate; after the first crash the
	// reboot must re-apply recorded stuck bits. We verify indirectly:
	// with persistence, the crash count under a burst of early hard
	// errors stays elevated (the fault that crashed the server is still
	// there after reboot and crashes it again until the workload stops
	// touching it... for the read-only index it will keep crashing).
	res, err := Simulate(Config{
		Builder: wsBuilder(t, false),
		Rates: faults.RateModel{
			ErrorsPerMonth: 3000000, SoftFraction: 0, LessTestedMultiplier: 1,
		},
		Horizon:      6 * time.Hour,
		RecoveryTime: 10 * time.Minute,
		Seed:         9,
		MaxErrors:    200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes < 2 {
		t.Errorf("crashes = %d, expected a crash loop from persistent faults", res.Crashes)
	}
}
