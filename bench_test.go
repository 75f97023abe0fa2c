package hrmsim

import "testing"

// benchLab builds a lab at benchmark scale. Campaign cells are cached
// within one lab, so each benchmark iteration measures the cost of
// regenerating its artifact from scratch.
func benchLab(b *testing.B) *Lab {
	b.Helper()
	lab, err := NewLab(LabConfig{Trials: 30, TimingTrials: 120, Watchpoints: 160, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return lab
}

// benchExperiment regenerates one of the paper's tables/figures per
// iteration. Run with -v to see the regenerated artifact.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lab := benchLab(b)
		rep, err := lab.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			b.Logf("%s\n%s", rep.Title, rep.Text)
		}
	}
}

// One benchmark per table and figure of the paper's evaluation.

// BenchmarkTable1ECCTechniques regenerates Table 1 (technique capability
// and added capacity, with codec self-tests).
func BenchmarkTable1ECCTechniques(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable3RegionSizes regenerates Table 3 (application memory
// region sizes).
func BenchmarkTable3RegionSizes(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4DesignDimensions regenerates Table 4 (the HRM design
// space dimensions).
func BenchmarkTable4DesignDimensions(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFigure3InterApplication regenerates Fig. 3 (crash probability
// and incorrect-result rate across the three applications, soft vs hard).
func BenchmarkFigure3InterApplication(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFigure4PerRegion regenerates Fig. 4 (per-region vulnerability
// for every application).
func BenchmarkFigure4PerRegion(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFigure5aTiming regenerates Fig. 5a (time-to-outcome
// distributions: quick-to-crash vs periodically incorrect).
func BenchmarkFigure5aTiming(b *testing.B) { benchExperiment(b, "fig5a") }

// BenchmarkFigure5bSafeRatios regenerates Fig. 5b (safe-ratio densities
// per WebSearch region).
func BenchmarkFigure5bSafeRatios(b *testing.B) { benchExperiment(b, "fig5b") }

// BenchmarkFigure6ErrorSeverity regenerates Fig. 6 (WebSearch
// vulnerability by error type).
func BenchmarkFigure6ErrorSeverity(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkTable5Recoverability regenerates Table 5 (implicit/explicit
// recoverable memory in WebSearch).
func BenchmarkTable5Recoverability(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkTable6DesignPoints regenerates Table 6 (the five design points:
// cost savings, crashes, availability, incorrect rate).
func BenchmarkTable6DesignPoints(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkFigure8TolerableErrors regenerates Fig. 8 (tolerable error
// rates per availability target).
func BenchmarkFigure8TolerableErrors(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFigure9ChannelProvisioning regenerates Fig. 9 (per-channel
// heterogeneous DIMM provisioning).
func BenchmarkFigure9ChannelProvisioning(b *testing.B) { benchExperiment(b, "fig9") }

// Micro-benchmarks of the planning and profiling front ends. Campaign,
// trial and workload costs are hrmbench's to report (go run ./bench).

// BenchmarkDesignSpaceSearch measures the exhaustive Fig. 7 planning
// search over 216 candidate designs.
func BenchmarkDesignSpaceSearch(b *testing.B) {
	vulns := PaperWebSearchVulnerability()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(PlanConfig{Vulnerabilities: vulns}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessProfile measures the full watchpoint-monitored workload
// analysis.
func BenchmarkAccessProfile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AccessProfile(AccessProfileConfig{
			App:         AppWebSearch,
			Size:        SizeSmall,
			Watchpoints: 200,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
