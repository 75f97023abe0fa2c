package chaos

import (
	"testing"

	"hrmsim/internal/kvnode"
)

// e2eSeed keeps the node population, op stream, and injection schedule
// identical across the runs being compared.
const e2eSeed = 42

// runE2E hosts a kvnode in-process and runs the full steady → chaos →
// recovery op stream against it through Dispatch, with hot injection.
func runE2E(t *testing.T, ecc, recoverMode string) *Verdict {
	t.Helper()
	srv, err := kvnode.New(kvnode.Config{Keys: 128, ECC: ecc, Seed: e2eSeed, Recover: recoverMode})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewLocalInjector(srv, "hot", nil, e2eSeed)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Run(Config{
		Do:     func(line string) (string, error) { return srv.Dispatch(line), nil },
		Steady: 300, Chaos: 600, Recovery: 300,
		Injections: 8,
		// The read-back right after each flip witnesses the corruption.
		Injector: inj,
		// ReadFraction 1 keeps Par+R's restored words from being stale
		// (they come from the build-time backing copy).
		ReadFraction: 1,
		Seed:         e2eSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func phaseReport(t *testing.T, v *Verdict, phase string) PhaseReport {
	t.Helper()
	for _, p := range v.Phases {
		if p.Phase == phase {
			return p
		}
	}
	t.Fatalf("verdict has no %s phase: %+v", phase, v.Phases)
	return PhaseReport{}
}

func findResult(v *Verdict, name, phase string) (SLOResult, bool) {
	for _, r := range v.Results {
		if r.Name == name && r.Phase == phase {
			return r, true
		}
	}
	return SLOResult{}, false
}

// TestE2EUnprotectedVsSECDED is the discriminating experiment the harness
// exists for: the same seed, op stream, and injection schedule driven
// against an unprotected node and a SEC-DED node. The unprotected node
// must fail the no-wrong-values objective during chaos; SEC-DED must
// correct every fault and pass everything.
func TestE2EUnprotectedVsSECDED(t *testing.T) {
	none := runE2E(t, "none", "")
	secded := runE2E(t, "secded", "")

	if none.Pass {
		t.Error("unprotected node passed under injection; wrong values went unwitnessed")
	}
	r, ok := findResult(none, "no-wrong-values", PhaseChaos)
	if !ok {
		t.Fatalf("no-wrong-values/chaos result missing: %+v", none.Results)
	}
	if r.Pass {
		t.Error("no-wrong-values passed on the unprotected node during chaos")
	}
	if p := phaseReport(t, none, PhaseChaos); p.WrongValues == 0 || p.Injections == 0 {
		t.Errorf("unprotected chaos window: %d wrong values over %d injections; want both > 0",
			p.WrongValues, p.Injections)
	}
	// Before injection starts, the unprotected node is healthy.
	if r, ok := findResult(none, "no-wrong-values", PhaseSteady); !ok || !r.Pass {
		t.Errorf("unprotected steady phase should pass no-wrong-values: %+v", r)
	}

	if !secded.Pass {
		t.Errorf("SEC-DED node failed: %+v", secded.Failed())
	}
	p := phaseReport(t, secded, PhaseChaos)
	if p.Corrected == 0 {
		t.Error("SEC-DED chaos window shows no corrections; injections not exercised")
	}
	if p.WrongValues != 0 || p.Uncorrectable != 0 {
		t.Errorf("SEC-DED chaos window: %d wrong values, %d uncorrectable; want 0",
			p.WrongValues, p.Uncorrectable)
	}
	// Same schedule on both sides.
	if a, b := phaseReport(t, none, PhaseChaos).Injections, p.Injections; a != b {
		t.Errorf("schedules diverged: %d vs %d injections", a, b)
	}
}

// TestE2EParRRecoversUnderLoad runs parity detection with Par+R word
// restore: faults are detected at read time and repaired online while
// traffic continues, so the run passes including the recovery-active
// objective (implied by the node's recovery mode), with repairs landing
// in the chaos window.
func TestE2EParRRecoversUnderLoad(t *testing.T) {
	v := runE2E(t, "parity", "parr")
	if !v.Pass {
		t.Fatalf("parity+parr run failed: %+v", v.Failed())
	}
	p := phaseReport(t, v, PhaseChaos)
	if p.Recovered == 0 {
		t.Error("no online repairs recorded in the chaos window")
	}
	if r, ok := findResult(v, "recovery-active", PhaseChaos); !ok || !r.Pass {
		t.Errorf("recovery-active/chaos: %+v, ok=%v", r, ok)
	}
	if p.WrongValues != 0 {
		t.Errorf("%d wrong values served despite Par+R restore", p.WrongValues)
	}
}
