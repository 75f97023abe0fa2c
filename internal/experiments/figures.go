package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"hrmsim/internal/apps"
	"hrmsim/internal/apps/websearch"
	"hrmsim/internal/core"
	"hrmsim/internal/faults"
	"hrmsim/internal/monitor"
	"hrmsim/internal/simmem"
	"hrmsim/internal/stats"
	"hrmsim/internal/textplot"
)

// cell names one campaign bar of a vulnerability figure.
type cell struct {
	label string
	res   *core.CampaignResult
}

// renderVulnerability renders a set of campaign cells as the paper's
// two-panel layout: (a) crash probability with 90% CI, (b) incorrect
// results per billion queries on a log scale with max-trial error bars.
func renderVulnerability(title string, cells []cell) (string, error) {
	var crashBars, incBars []textplot.Bar
	for _, c := range cells {
		p, err := c.res.CrashProbability(0.90)
		if err != nil {
			return "", err
		}
		crashBars = append(crashBars, textplot.Bar{
			Label: c.label,
			Value: p.P * 100,
			Note:  fmt.Sprintf("[%.1f%%, %.1f%%] (%d/%d)", p.Lo*100, p.Hi*100, p.Successes, p.Trials),
		})
		mean, max := c.res.IncorrectPerBillion()
		incBars = append(incBars, textplot.Bar{
			Label: c.label,
			Value: mean,
			Note:  fmt.Sprintf("max/trial %.3g", max),
		})
	}
	var b strings.Builder
	b.WriteString(textplot.BarChart(title+" (a) probability of crash [%]", crashBars, 40, false))
	b.WriteByte('\n')
	b.WriteString(textplot.BarChart(title+" (b) incorrect per billion queries [log]", incBars, 40, true))
	return b.String(), nil
}

// Figure3 regenerates Fig. 3: inter-application vulnerability to
// single-bit soft and hard errors.
func (s *Suite) Figure3() (*Report, error) {
	rep := &Report{ID: "fig3", Title: "Inter-application vulnerability (Fig. 3)"}
	var cells []cell
	for _, spec := range []faults.Spec{faults.SingleBitSoft, faults.SingleBitHard} {
		for _, name := range AppNames() {
			res, err := s.campaign(name, spec, 0, s.scale.Trials)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell{
				label: fmt.Sprintf("%-9s %s", paperAppLabel(name), spec.Class),
				res:   res,
			})
		}
	}
	text, err := renderVulnerability("Figure 3:", cells)
	if err != nil {
		return nil, err
	}
	rep.Text = text

	// Finding 1: significant variance across applications.
	probs := map[string]float64{}
	for _, name := range AppNames() {
		res, err := s.campaign(name, faults.SingleBitSoft, 0, s.scale.Trials)
		if err != nil {
			return nil, err
		}
		p, err := res.CrashProbability(0.90)
		if err != nil {
			return nil, err
		}
		probs[paperAppLabel(name)] = p.P
	}
	rep.Comparisons = append(rep.Comparisons, Comparison{
		Metric: "Finding 1: error tolerance varies across applications",
		Paper:  "up to 6 orders of magnitude spread; WebSearch most tolerant",
		Measured: fmt.Sprintf("soft-error crash probs: WebSearch %.1f%%, Memcached %.1f%%, GraphLab %.1f%%",
			probs["WebSearch"]*100, probs["Memcached"]*100, probs["GraphLab"]*100),
	})
	return rep, nil
}

// Figure4 regenerates Fig. 4: per-region vulnerability for every
// application, soft and hard single-bit errors.
func (s *Suite) Figure4() (*Report, error) {
	rep := &Report{ID: "fig4", Title: "Per-region vulnerability (Fig. 4)"}
	var cells []cell
	for _, spec := range []faults.Spec{faults.SingleBitSoft, faults.SingleBitHard} {
		for _, name := range AppNames() {
			kinds, err := s.regionsOf(name)
			if err != nil {
				return nil, err
			}
			for _, k := range kinds {
				res, err := s.campaign(name, spec, k, s.scale.Trials)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell{
					label: fmt.Sprintf("%-9s %-7s %s", paperAppLabel(name), k, spec.Class),
					res:   res,
				})
			}
		}
	}
	text, err := renderVulnerability("Figure 4:", cells)
	if err != nil {
		return nil, err
	}
	rep.Text = text

	// Finding 2: variance within an application. The paper's
	// stack-crashes-most contrast is a hard-error effect (soft errors in
	// the stack are masked by the next frame's writes).
	get := func(k simmem.RegionKind) (float64, error) {
		res, err := s.campaign("websearch", faults.SingleBitHard, k, s.scale.Trials)
		if err != nil {
			return 0, err
		}
		p, err := res.CrashProbability(0.90)
		if err != nil {
			return 0, err
		}
		return p.P, nil
	}
	pPriv, err := get(simmem.RegionPrivate)
	if err != nil {
		return nil, err
	}
	pHeap, err := get(simmem.RegionHeap)
	if err != nil {
		return nil, err
	}
	pStack, err := get(simmem.RegionStack)
	if err != nil {
		return nil, err
	}
	rep.Comparisons = append(rep.Comparisons, Comparison{
		Metric: "Finding 2/4: stack region crashes more than private/heap (hard errors)",
		Paper:  "WebSearch hard errors: heap/private crash far less than stack",
		Measured: fmt.Sprintf("WebSearch hard: private %.1f%%, heap %.1f%%, stack %.1f%%",
			pPriv*100, pHeap*100, pStack*100),
	})
	return rep, nil
}

// Figure5a regenerates Fig. 5a: the distribution of time from injection
// to effect, separating quick-to-crash (exponential) from periodically
// incorrect (uniform) behaviour. Crash timing comes from stack-region
// hard-error trials (our simulated WebSearch, like the real one, almost
// never crashes on a single soft error — see EXPERIMENTS.md); incorrect
// timing comes from whole-address-space trials.
func (s *Suite) Figure5a() (*Report, error) {
	crashRes, err := s.campaign("websearch", faults.SingleBitHard, simmem.RegionStack, s.scale.Fig5aTrials)
	if err != nil {
		return nil, err
	}
	res, err := s.campaign("websearch", faults.SingleBitHard, 0, s.scale.Fig5aTrials)
	if err != nil {
		return nil, err
	}
	crashTimes := append(crashRes.TimesToEffect(core.OutcomeCrash),
		res.TimesToEffect(core.OutcomeCrash)...)
	// Incorrect outcomes recur as the corrupted data is re-consumed, so
	// every occurrence is a sample (the paper's "periodically
	// incorrect" behaviour), not just the first.
	incTimes := res.AllIncorrectTimes()
	rep := &Report{ID: "fig5a", Title: "Temporal variation in vulnerability (Fig. 5a)"}

	// The observation horizon is the whole post-injection run, which is
	// what the uniform ("periodically incorrect") alternative spans.
	entry, err := s.app("websearch")
	if err != nil {
		return nil, err
	}
	horizon := float64(len(entry.prepared.Golden())) * entry.builder.(*websearch.Builder).Config().RequestCost.Minutes()

	var b strings.Builder
	renderDist := func(name string, xs []float64) error {
		if len(xs) < 5 {
			fmt.Fprintf(&b, "%s: only %d samples (increase trials)\n", name, len(xs))
			return nil
		}
		h, err := stats.NewHistogram(0, horizon, 8)
		if err != nil {
			return err
		}
		for _, x := range xs {
			h.Add(x)
		}
		centers := make([]float64, len(h.Counts))
		for i := range centers {
			centers[i] = h.BinCenter(i)
		}
		fit, err := stats.PreferredFit(xs, horizon)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s (n=%d, best fit: %s, KS=%.3f)\n", name, len(xs), fit.Kind, fit.KS)
		b.WriteString(textplot.HistogramPlot("  minutes after injection", centers, h.Counts, 32))
		b.WriteByte('\n')
		return nil
	}
	if err := renderDist("Crash outcomes", crashTimes); err != nil {
		return nil, err
	}
	if err := renderDist("Incorrect outcomes", incTimes); err != nil {
		return nil, err
	}
	rep.Text = b.String()

	if len(crashTimes) >= 5 && len(incTimes) >= 5 {
		cFit, err := stats.PreferredFit(crashTimes, horizon)
		if err != nil {
			return nil, err
		}
		iFit, err := stats.PreferredFit(incTimes, horizon)
		if err != nil {
			return nil, err
		}
		rep.Comparisons = append(rep.Comparisons, Comparison{
			Metric:   "Finding 3: quick-to-crash vs periodically incorrect",
			Paper:    "crashes exponentially distributed (early); incorrect uniform over time",
			Measured: fmt.Sprintf("crash times best fit %s; incorrect times best fit %s", cFit.Kind, iFit.Kind),
		})
	}
	return rep, nil
}

// Figure5b regenerates Fig. 5b: safe-ratio distributions per WebSearch
// memory region, read at the sampled addresses of the fault-free window.
func (s *Suite) Figure5b() (*Report, error) {
	entry, prof, err := s.profile("websearch")
	if err != nil {
		return nil, err
	}
	var sample []simmem.Addr
	if err := entry.prepared.WithSession(func(sess apps.SnapshotApp) error {
		sample = monitor.Sample(sess.Space(), rand.New(rand.NewSource(s.scale.Seed)), s.scale.Watchpoints)
		return nil
	}); err != nil {
		return nil, err
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("experiments: no watchpoints installed")
	}

	rep := &Report{ID: "fig5b", Title: "Safe-ratio distributions (Fig. 5b)"}
	var labels []string
	var profiles [][]float64
	var means []float64
	var summary []string
	for _, kind := range []simmem.RegionKind{simmem.RegionPrivate, simmem.RegionHeap, simmem.RegionStack} {
		ratios := prof.SafeRatios(sample, kind)
		if len(ratios) == 0 {
			summary = append(summary, fmt.Sprintf("%s: no accessed watchpoints", kind))
			continue
		}
		k, err := stats.NewKDE(ratios, 0.08)
		if err != nil {
			return nil, err
		}
		sum, err := stats.Summarize(ratios)
		if err != nil {
			return nil, err
		}
		labels = append(labels, kind.String())
		profiles = append(profiles, k.Profile(0, 1, 48))
		means = append(means, sum.Mean)
		summary = append(summary, fmt.Sprintf("%s: n=%d mean=%.2f", kind, sum.N, sum.Mean))
	}
	var b strings.Builder
	b.WriteString(textplot.ViolinPlot("Figure 5b: Safe ratio density by region (0=read-dominated, 1=write-dominated)",
		labels, profiles, means, 0, 1))
	b.WriteByte('\n')
	b.WriteString(strings.Join(summary, "; "))
	b.WriteByte('\n')
	rep.Text = b.String()

	// Finding 4: the compiler-managed stack masks by overwrite far more
	// than the programmer-managed read-mostly regions.
	meanOf := func(kind simmem.RegionKind) float64 {
		sum, err := stats.Summarize(prof.SafeRatios(sample, kind))
		if err != nil {
			return 0
		}
		return sum.Mean
	}
	rep.Comparisons = append(rep.Comparisons, Comparison{
		Metric: "Finding 4: stack safe ratio exceeds private/heap",
		Paper:  "stack near 1 (frequent overwrite); private/heap low (read-mostly index)",
		Measured: fmt.Sprintf("mean safe ratios: private %.2f, heap %.2f, stack %.2f",
			meanOf(simmem.RegionPrivate), meanOf(simmem.RegionHeap), meanOf(simmem.RegionStack)),
	})
	return rep, nil
}

// Figure6 regenerates Fig. 6: WebSearch vulnerability by error severity
// (single-bit soft, single-bit hard, two-bit hard) per region.
func (s *Suite) Figure6() (*Report, error) {
	rep := &Report{ID: "fig6", Title: "Vulnerability by error type (Fig. 6)"}
	specs := []faults.Spec{faults.SingleBitSoft, faults.SingleBitHard, faults.DoubleBitHard}
	kinds, err := s.regionsOf("websearch")
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, spec := range specs {
		for _, k := range kinds {
			res, err := s.campaign("websearch", spec, k, s.scale.Trials)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell{
				label: fmt.Sprintf("%-7s %-16s", k, spec),
				res:   res,
			})
		}
	}
	text, err := renderVulnerability("Figure 6: WebSearch", cells)
	if err != nil {
		return nil, err
	}
	rep.Text = text

	// Finding 5: severity mainly raises the incorrect rate.
	rateOf := func(spec faults.Spec) (float64, error) {
		var inc, req float64
		for _, k := range kinds {
			res, err := s.campaign("websearch", spec, k, s.scale.Trials)
			if err != nil {
				return 0, err
			}
			for _, tr := range res.Trials {
				inc += float64(tr.Incorrect)
				req += float64(tr.Requests)
			}
		}
		if req == 0 {
			return 0, nil
		}
		return inc / req * 1e9, nil
	}
	soft, err := rateOf(faults.SingleBitSoft)
	if err != nil {
		return nil, err
	}
	hard1, err := rateOf(faults.SingleBitHard)
	if err != nil {
		return nil, err
	}
	hard2, err := rateOf(faults.DoubleBitHard)
	if err != nil {
		return nil, err
	}
	rep.Comparisons = append(rep.Comparisons, Comparison{
		Metric: "Finding 5: severity mainly decreases correctness",
		Paper:  "incorrect rate rises orders of magnitude from soft to hard; crash prob similar",
		Measured: fmt.Sprintf("incorrect/billion: soft %.3g, 1-bit hard %.3g, 2-bit hard %.3g",
			soft, hard1, hard2),
	})
	return rep, nil
}
