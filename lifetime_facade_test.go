package hrmsim

import "testing"

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
	if _, err := SimulateLifetime(LifetimeConfig{App: AppKVStore}); err == nil {
		t.Error("non-idempotent app accepted")
	}
	if _, err := SimulateLifetime(LifetimeConfig{Protection: "asbestos"}); err == nil {
		t.Error("unknown protection accepted")
	}
	if _, err := SimulateLifetime(LifetimeConfig{Size: SizeLarge}); err == nil {
		t.Error("unsupported size accepted")
	}
}

// TestSimulateLifetimeZeroMeansZero: a zero rate injects no error and a
// zero soft fraction makes every error hard. Neither zero may be read as
// "unset": -errors 0 and -soft 0 pass them through unchanged.
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
}
