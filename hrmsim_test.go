package hrmsim

import (
	"math"
	"strings"
	"testing"
)

func TestCharacterizeDefaults(t *testing.T) {
	c, err := Characterize(CharacterizeConfig{
		App:    AppKVStore,
		Size:   SizeSmall,
		Trials: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Error != SoftSingleBit {
		t.Errorf("default error type = %q", c.Error)
	}
	if c.Trials != 60 {
		t.Errorf("trials = %d", c.Trials)
	}
	total := 0
	for _, n := range c.Outcomes {
		total += n
	}
	if total != 60 {
		t.Errorf("outcome counts sum to %d", total)
	}
	if c.CrashCILow > c.CrashProbability || c.CrashProbability > c.CrashCIHigh {
		t.Error("point estimate outside CI")
	}
	if c.CrashProbability+c.ToleratedProbability > 1.0001 {
		t.Error("crash + tolerated exceed 1")
	}
}

func TestCharacterizeValidation(t *testing.T) {
	if _, err := Characterize(CharacterizeConfig{}); err == nil {
		t.Error("missing app accepted")
	}
	if _, err := Characterize(CharacterizeConfig{App: "nope", Trials: 1}); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := Characterize(CharacterizeConfig{App: AppKVStore, Error: "weird", Trials: 1}); err == nil {
		t.Error("unknown error type accepted")
	}
	if _, err := Characterize(CharacterizeConfig{App: AppKVStore, Region: "rodata", Trials: 1}); err == nil {
		t.Error("unknown region accepted")
	}
	if _, err := Characterize(CharacterizeConfig{App: AppKVStore, Size: WorkloadSize(9), Trials: 1}); err == nil {
		t.Error("unknown size accepted")
	}
}

func TestCharacterizeRegionFilterAndHardErrors(t *testing.T) {
	c, err := Characterize(CharacterizeConfig{
		App:    AppWebSearch,
		Error:  HardSingleBit,
		Region: RegionStack,
		Size:   SizeSmall,
		Trials: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hard errors in the live stack frame crash frequently (Finding 2/4).
	if c.CrashProbability < 0.2 {
		t.Errorf("stack hard-error crash probability = %.2f, expected substantial", c.CrashProbability)
	}
	if len(c.CrashMinutes) == 0 {
		t.Error("no crash timing samples")
	}
}

func TestCharacterizeSoftStackMasked(t *testing.T) {
	c, err := Characterize(CharacterizeConfig{
		App:    AppWebSearch,
		Error:  SoftSingleBit,
		Region: RegionStack,
		Size:   SizeSmall,
		Trials: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.ToleratedProbability < 0.9 {
		t.Errorf("soft stack errors tolerated %.2f, expected ~all masked by overwrite", c.ToleratedProbability)
	}
	if c.Outcomes["masked-by-overwrite"] == 0 {
		t.Error("no overwrite-masked outcomes in the stack")
	}
}

func TestAccessProfile(t *testing.T) {
	rep, err := AccessProfile(AccessProfileConfig{
		App:         AppWebSearch,
		Size:        SizeSmall,
		Watchpoints: 240,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowMinutes <= 0 {
		t.Error("empty observation window")
	}
	byRegion := map[string]RegionProfile{}
	for _, r := range rep.Regions {
		byRegion[r.Region] = r
	}
	priv, ok1 := byRegion["private"]
	stack, ok2 := byRegion["stack"]
	if !ok1 || !ok2 {
		t.Fatalf("missing regions: %+v", rep.Regions)
	}
	// Finding 4: stack safe ratio high, read-only private low.
	if stack.MeanSafeRatio <= priv.MeanSafeRatio {
		t.Errorf("stack safe ratio %.2f not above private %.2f",
			stack.MeanSafeRatio, priv.MeanSafeRatio)
	}
	// Table 5 shape: the read-only backed index is implicitly
	// recoverable; the stack is not.
	if priv.ImplicitRecoverable != 1 {
		t.Errorf("private implicit = %.2f, want 1", priv.ImplicitRecoverable)
	}
	if stack.ImplicitRecoverable != 0 {
		t.Errorf("stack implicit = %.2f, want 0", stack.ImplicitRecoverable)
	}
}

func TestAccessProfileValidation(t *testing.T) {
	if _, err := AccessProfile(AccessProfileConfig{}); err == nil {
		t.Error("missing app accepted")
	}
	if _, err := AccessProfile(AccessProfileConfig{App: AppKVStore, Size: SizeSmall, Watchpoints: -1}); err == nil {
		t.Error("negative watchpoint count accepted")
	}
}

func TestEvaluateTable6PaperInputs(t *testing.T) {
	rows, err := EvaluateTable6(PaperWebSearchVulnerability())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]DesignRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["Consumer PC"]; math.Abs(r.CrashesPerMonth-19) > 1 {
		t.Errorf("Consumer PC crashes = %.1f, want ~19", r.CrashesPerMonth)
	}
	if r := byName["Detect&Recover"]; !r.MeetsTarget {
		t.Error("Detect&Recover should meet the target")
	}
	if r := byName["Detect&Recover/L"]; !r.MeetsTarget || r.ServerSavings < 0.04 {
		t.Errorf("Detect&Recover/L row off: %+v", r)
	}
	if _, err := EvaluateTable6(nil); err == nil {
		t.Error("empty inputs accepted")
	}
}

func TestPlan(t *testing.T) {
	res, err := Plan(PlanConfig{Vulnerabilities: PaperWebSearchVulnerability()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.MeetsTarget {
		t.Error("plan returned an infeasible design")
	}
	if res.Considered == 0 || res.Feasible == 0 || res.Feasible > res.Considered {
		t.Errorf("counts off: %+v", res)
	}
	if len(res.BestMapping) != 3 {
		t.Errorf("mapping covers %d regions", len(res.BestMapping))
	}
	// The searched optimum must be at least as cheap as the published
	// Detect&Recover/L design.
	rows, err := EvaluateTable6(PaperWebSearchVulnerability())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Name == "Detect&Recover/L" && res.Best.ServerSavings+1e-9 < r.ServerSavings {
			t.Errorf("plan best %.4f worse than published %.4f", res.Best.ServerSavings, r.ServerSavings)
		}
	}
	// Tightening the target and raising the error rate can only shrink
	// the feasible set and the attainable savings (a fully protected
	// tested server always remains feasible).
	strict, err := Plan(PlanConfig{
		Vulnerabilities:    PaperWebSearchVulnerability(),
		TargetAvailability: 0.99999,
		ErrorsPerMonth:     1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Feasible > res.Feasible {
		t.Errorf("stricter target grew the feasible set: %d > %d", strict.Feasible, res.Feasible)
	}
	if strict.Best.ServerSavings > res.Best.ServerSavings+1e-9 {
		t.Error("stricter target increased attainable savings")
	}
	if _, err := Plan(PlanConfig{}); err == nil {
		t.Error("missing vulnerabilities accepted")
	}
}

func TestTolerable(t *testing.T) {
	probs := PaperCrashProbabilities()
	ws, err := Tolerable(probs["WebSearch"], 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if ws < 2000 {
		t.Errorf("WebSearch tolerable at 99%% = %.0f, want >= 2000", ws)
	}
	gl, err := Tolerable(probs["GraphLab"], 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if gl >= 2000 {
		t.Errorf("GraphLab tolerable at 99%% = %.0f, want < 2000", gl)
	}
	if _, err := Tolerable(0, 0.99); err == nil {
		t.Error("zero probability accepted")
	}
}

func TestLabRunsOneExperiment(t *testing.T) {
	lab, err := NewLab(LabConfig{Trials: 30, Fig5aTrials: 30, Watchpoints: 120})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lab.Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table1" || !strings.Contains(rep.Text, "SEC-DED") {
		t.Errorf("unexpected report: %q", rep.Title)
	}
	if _, err := lab.Run("bogus"); err == nil {
		t.Error("bogus experiment accepted")
	}
	if len(ExperimentIDs()) != 12 {
		t.Errorf("got %d experiment IDs", len(ExperimentIDs()))
	}
}

func TestNewBuilderSizes(t *testing.T) {
	for _, app := range Apps() {
		for _, size := range []WorkloadSize{SizeSmall, SizeMedium} {
			b, err := NewBuilder(app, size, 7)
			if err != nil {
				t.Fatalf("%s/%d: %v", app, size, err)
			}
			if b.AppName() != string(app) {
				t.Errorf("builder name %q for app %q", b.AppName(), app)
			}
		}
	}
	if len(ErrorTypes()) != 3 {
		t.Error("wrong error type count")
	}
}
