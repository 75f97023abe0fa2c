package chaos

import (
	"math"
	"slices"
	"strings"
	"testing"

	"hrmsim/internal/kvnode"
)

// TestRunValidation: a run refuses negative lengths and counts by flag
// name, faults without a chaos phase, a read fraction outside [0, 1],
// and a node whose stats do not say how to size the oracle.
func TestRunValidation(t *testing.T) {
	do := func(string) (string, error) { return "STATS ops=0 keys=8 value_size=64", nil }
	for _, c := range []struct {
		want string
		cfg  Config
	}{
		{"transport", Config{}},
		{"-steady", Config{Do: do, Steady: -1}},
		{"-chaos", Config{Do: do, Chaos: -1}},
		{"-recovery", Config{Do: do, Recovery: -1}},
		{"-injections", Config{Do: do, Chaos: 10, Injections: -3}},
		{"-chaos", Config{Do: do, Injections: 2}},
		{"-read-fraction", Config{Do: do, ReadFraction: 1.5}},
		{"-read-fraction", Config{Do: do, ReadFraction: -0.1}},
		{"-read-fraction", Config{Do: do, ReadFraction: math.NaN()}},
		{"keys=", Config{Do: func(string) (string, error) { return "STATS ops=0", nil }}},
	} {
		if _, err := Run(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: err = %v, want one naming %s", c.cfg, err, c.want)
		}
	}
}

// TestRunIsOneOpStream pins the driver's shape on the wire: one stats
// read at start-up and one per phase boundary (no sampler), phases of
// exactly the configured operation counts, and fault k sent as the node's
// own `inject soft` right before chaos operation k·Chaos/Injections.
func TestRunIsOneOpStream(t *testing.T) {
	srv, err := kvnode.New(kvnode.Config{Keys: 64, ECC: "secded", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	v, err := Run(Config{
		Do: func(line string) (string, error) {
			lines = append(lines, line)
			return srv.Dispatch(line), nil
		},
		Steady: 10, Chaos: 20, Recovery: 10, Injections: 4,
		ReadFraction: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var stats, ops int
	var injectedAt []int
	for _, l := range lines {
		switch {
		case l == "stats":
			stats++
		case l == "inject soft":
			injectedAt = append(injectedAt, ops)
		default:
			ops++
		}
	}
	if stats != 4 {
		t.Errorf("%d stats reads, want 4 (start-up and three boundaries)", stats)
	}
	if ops != 40 {
		t.Errorf("%d operations, want 10+20+10", ops)
	}
	if want := []int{10, 15, 20, 25}; !slices.Equal(injectedAt, want) {
		t.Errorf("faults sent before operations %v, want %v", injectedAt, want)
	}
	for i, want := range []int64{10, 20, 10} {
		if p := v.Phases[i]; p.Ops != want || p.Gets+p.Sets != want {
			t.Errorf("%s: %d ops (%d gets, %d sets), want %d", p.Phase, p.Ops, p.Gets, p.Sets, want)
		}
	}
	if p := phaseReport(t, v, PhaseChaos); p.Injections != 4 {
		t.Errorf("chaos phase reports %d injections, want 4", p.Injections)
	}
	if v.Experiment != "kvserve-secded" {
		t.Errorf("experiment = %q, want the name the node's stats give", v.Experiment)
	}
}
