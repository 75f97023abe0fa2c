package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestExtensionIDsDispatch(t *testing.T) {
	want := []string{"ext-aggregation", "ext-correlated", "ext-scrub", "ext-retire"}
	if got := ExtensionIDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("ExtensionIDs() = %q, want %q", got, want)
	}
	// ext-cache is retired: an old script asking for it gets the
	// unknown-experiment refusal, not a silent substitute.
	s := getSuite(t)
	for _, id := range []string{"ext-nope", "ext-cache"} {
		if _, err := s.Run(id); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("Run(%q) err = %v, want an unknown experiment error", id, err)
		}
	}
}

func TestExtAggregationReducesExposure(t *testing.T) {
	s := getSuite(t)
	rep, err := s.Run("ext-aggregation")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "exposure reduction") {
		t.Errorf("missing metrics:\n%s", rep.Text)
	}
	if len(rep.Comparisons) == 0 {
		t.Fatal("no comparison recorded")
	}
}

func TestExtCorrelatedMoreSevere(t *testing.T) {
	s := getSuite(t)
	rep, err := s.Run("ext-correlated")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"row", "column", "bank", "chip"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("missing %q domain:\n%s", want, rep.Text)
		}
	}
}

// TestCorrelatedVerdict: ext-correlated's finding is derived from the
// per-domain crash estimates, and a domain that ties or falls below the
// single-cell baseline is named instead of counted as higher.
func TestCorrelatedVerdict(t *testing.T) {
	for _, c := range []struct {
		name    string
		single  float64
		domains []domainCrash
		want    string
	}{
		{"all higher", 0.1, []domainCrash{{"row", 0.2}, {"chip", 0.5}},
			"single-cell crash 10.0%; multi-address domain faults all higher (see chart)"},
		{"one ties", 0.1, []domainCrash{{"row", 0.1}, {"chip", 0.5}},
			"single-cell crash 10.0%; not higher for row 10.0% (see chart)"},
		{"two lower", 0.3, []domainCrash{{"row", 0.2}, {"column", 0.4}, {"bank", 0}},
			"single-cell crash 30.0%; not higher for row 20.0%, bank 0.0% (see chart)"},
	} {
		if got := correlatedVerdict(c.single, c.domains); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

func TestExtScrubbingMonotone(t *testing.T) {
	s := getSuite(t)
	rep, err := s.Run("ext-scrub")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "no scrubbing") || !strings.Contains(rep.Text, "every 1 min") {
		t.Errorf("missing cases:\n%s", rep.Text)
	}
}

func TestExtRetirement(t *testing.T) {
	s := getSuite(t)
	rep, err := s.Run("ext-retire")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "Pages retired") {
		t.Errorf("missing retirement column:\n%s", rep.Text)
	}
}
