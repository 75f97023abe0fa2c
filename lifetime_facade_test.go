package hrmsim

import (
	"strings"
	"testing"
)

func TestSimulateLifetimeDefaultsClean(t *testing.T) {
	res, err := SimulateLifetime(LifetimeConfig{Hours: 2})
	if err != nil {
		t.Fatal(err)
	}
	// No error rate set: no error arrives, and availability stays high.
	if res.Availability < 0.9 {
		t.Errorf("availability = %g", res.Availability)
	}
	if res.Requests == 0 {
		t.Error("no requests served")
	}
}

func TestSimulateLifetimeProtectionOrdering(t *testing.T) {
	base := LifetimeConfig{
		ErrorsPerMonth: 150000,
		SoftFraction:   1,
		Hours:          12,
		Seed:           3,
	}
	results := map[Protection]*LifetimeResult{}
	for _, p := range []Protection{ProtectNone, ProtectSECDEDScrub} {
		cfg := base
		cfg.Protection = p
		res, err := SimulateLifetime(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		results[p] = res
	}
	none := results[ProtectNone]
	scrubbed := results[ProtectSECDEDScrub]
	if scrubbed.Crashes > none.Crashes {
		t.Errorf("SEC-DED+scrub crashed more (%d) than unprotected (%d)",
			scrubbed.Crashes, none.Crashes)
	}
	if scrubbed.Incorrect > none.Incorrect {
		t.Errorf("SEC-DED+scrub more incorrect (%d) than unprotected (%d)",
			scrubbed.Incorrect, none.Incorrect)
	}
	if scrubbed.ScrubPasses == 0 {
		t.Error("scrubber never ran")
	}
	if none.Crashes == 0 && none.Incorrect == 0 {
		t.Error("unprotected baseline unaffected; comparison vacuous")
	}
}

func TestSimulateLifetimeValidation(t *testing.T) {
	if _, err := SimulateLifetime(LifetimeConfig{App: AppKVStore, Hours: 1}); err == nil {
		t.Error("non-idempotent app accepted")
	}
	if _, err := SimulateLifetime(LifetimeConfig{Protection: "asbestos", Hours: 1}); err == nil {
		t.Error("unknown protection accepted")
	}
	if _, err := SimulateLifetime(LifetimeConfig{Size: SizeLarge, Hours: 1}); err == nil {
		t.Error("unsupported size accepted")
	}
}

// TestSimulateLifetimeZeroMeansZero: a zero rate injects no error, a
// zero soft fraction makes every error hard, and a zero recovery time
// costs a crash no downtime. No zero may be read as "unset": -errors 0,
// -soft 0 and -recovery 0 pass them through unchanged. Zero hours
// simulates nothing, so it is refused by name rather than run as a day.
func TestSimulateLifetimeZeroMeansZero(t *testing.T) {
	res, err := SimulateLifetime(LifetimeConfig{ErrorsPerMonth: 0, SoftFraction: 1, Hours: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorsInjected != 0 || res.Crashes != 0 || res.Incorrect != 0 || res.Requests == 0 {
		t.Errorf("zero error rate: %+v, want requests served and no error, crash or incorrect response", res)
	}
	run := func(soft float64) *LifetimeResult {
		t.Helper()
		res, err := SimulateLifetime(LifetimeConfig{ErrorsPerMonth: 150000, SoftFraction: soft, Hours: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hard, soft := run(0), run(1)
	if hard.ErrorsInjected == 0 {
		t.Fatal("no error arrived; the soft/hard comparison would prove nothing")
	}
	if *hard == *soft {
		t.Errorf("SoftFraction 0 ran the all-soft simulation: %+v", hard)
	}
	for _, recovery := range []int{0, 10} {
		res, err := SimulateLifetime(LifetimeConfig{ErrorsPerMonth: 600000, SoftFraction: 0, Hours: 2, Seed: 4,
			RecoveryMinutes: recovery})
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashes == 0 {
			t.Fatalf("RecoveryMinutes %d: no crash; the downtime check would prove nothing", recovery)
		}
		if want := float64(recovery * res.Crashes); res.DowntimeMinutes != want {
			t.Errorf("RecoveryMinutes %d: %d crashes cost %g minutes, want %g", recovery, res.Crashes, res.DowntimeMinutes, want)
		}
	}
	if _, err := SimulateLifetime(LifetimeConfig{Hours: 0}); err == nil || !strings.Contains(err.Error(), "Hours") {
		t.Errorf("Hours 0: err = %v, want a refusal naming Hours", err)
	}
}
