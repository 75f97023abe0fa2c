package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// testSuite is shared across tests (campaign cells are cached inside).
var testSuite *Suite

func getSuite(t *testing.T) *Suite {
	t.Helper()
	if testSuite == nil {
		s, err := NewSuite(Quick())
		if err != nil {
			t.Fatal(err)
		}
		testSuite = s
	}
	return testSuite
}

func TestNewSuiteValidation(t *testing.T) {
	if _, err := NewSuite(Scale{Trials: -1}); err == nil {
		t.Error("negative trials accepted")
	}
	if _, err := NewSuite(Scale{TargetCI: 1}); err == nil {
		t.Error("TargetCI 1 accepted")
	}
	s, err := NewSuite(Scale{Trials: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sc := s.Scale(); sc.Fig5aTrials != 15 || sc.Watchpoints != 1590 || sc.Seed != 1 {
		t.Errorf("defaults not applied: %+v", sc)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	s := getSuite(t)
	if _, err := s.Run("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable1Content(t *testing.T) {
	rep, err := getSuite(t).Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Parity", "SEC-DED", "DEC-TED", "Chipkill", "RAIM", "Mirroring", "12.50%", "125.00%"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, rep.Text)
		}
	}
	if !strings.Contains(rep.Text, "corrects 1-bit") || !strings.Contains(rep.Text, "detects 1-bit") {
		t.Error("codec self-tests missing")
	}
}

func TestTable3Shape(t *testing.T) {
	rep, err := getSuite(t).Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"WebSearch", "Memcached", "GraphLab", "36 GB"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("Table 3 missing %q", want)
		}
	}
	if len(rep.Comparisons) != 3 {
		t.Errorf("got %d comparisons", len(rep.Comparisons))
	}
}

func TestFigure3Findings(t *testing.T) {
	rep, err := getSuite(t).Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "probability of crash") ||
		!strings.Contains(rep.Text, "incorrect per billion") {
		t.Error("missing panels")
	}
	if len(rep.Comparisons) == 0 {
		t.Error("no findings recorded")
	}
}

func TestFigure5bStackSafestRegion(t *testing.T) {
	// Finding 4 must reproduce qualitatively: the stack's mean safe
	// ratio exceeds both read-mostly regions'.
	rep, err := getSuite(t).Figure5b()
	if err != nil {
		t.Fatal(err)
	}
	var p, h, st float64
	found := false
	for _, c := range rep.Comparisons {
		if !strings.Contains(c.Metric, "Finding 4") {
			continue
		}
		found = true
		if _, err := fmt.Sscanf(c.Measured,
			"mean safe ratios: private %f, heap %f, stack %f", &p, &h, &st); err != nil {
			t.Fatalf("unparseable measured string %q: %v", c.Measured, err)
		}
		if st <= p || st <= h {
			t.Errorf("stack mean %.2f not above private %.2f / heap %.2f", st, p, h)
		}
		if p > 0.5 {
			t.Errorf("private (read-only index) mean safe ratio %.2f suspiciously high", p)
		}
	}
	if !found {
		t.Fatal("Finding 4 comparison missing")
	}
}

func TestFigure4StackMostVulnerable(t *testing.T) {
	rep, err := getSuite(t).Figure4()
	if err != nil {
		t.Fatal(err)
	}
	var p, h, st float64
	found := false
	for _, c := range rep.Comparisons {
		if !strings.Contains(c.Metric, "Finding 2/4") {
			continue
		}
		found = true
		if _, err := fmt.Sscanf(c.Measured,
			"WebSearch hard: private %f%%, heap %f%%, stack %f%%", &p, &h, &st); err != nil {
			t.Fatalf("unparseable measured string %q: %v", c.Measured, err)
		}
		if st <= p || st <= h {
			t.Errorf("stack crash prob %.1f%% not above private %.1f%% / heap %.1f%%", st, p, h)
		}
	}
	if !found {
		t.Fatal("Finding 2/4 comparison missing")
	}
}

func TestTable6PaperRowsPresent(t *testing.T) {
	rep, err := getSuite(t).Table6()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Typical Server", "Consumer PC", "Detect&Recover",
		"Less-Tested (L)", "Detect&Recover/L", "measured simulated-WebSearch"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("Table 6 missing %q", want)
		}
	}
	if len(rep.Comparisons) != 5 {
		t.Errorf("got %d comparisons, want 5", len(rep.Comparisons))
	}
}

func TestFigure8OrderOfMagnitudeSpread(t *testing.T) {
	rep, err := getSuite(t).Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "99.99%") || !strings.Contains(rep.Text, "GraphLab") {
		t.Error("figure 8 table incomplete")
	}
	if len(rep.Comparisons) != 3 {
		t.Errorf("got %d comparisons, want 3", len(rep.Comparisons))
	}
}

func TestMeasuredWebSearchInputsShareSum(t *testing.T) {
	inputs, err := getSuite(t).MeasuredWebSearchInputs()
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != 3 {
		t.Fatalf("got %d inputs", len(inputs))
	}
	var sum float64
	for _, in := range inputs {
		sum += in.Share
		if in.CrashProb < 0 || in.CrashProb > 1 {
			t.Errorf("%s crash prob %g out of range", in.Name, in.CrashProb)
		}
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("shares sum to %g", sum)
	}
}
