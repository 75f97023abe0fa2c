package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metric declares one benchmark metric. BENCHMARK.json repeats these
// declarations; TestDeclarationsMatchBenchmarkJSON keeps the two equal.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them. A run is cut into slices — campaigns, or 1 s
// windows — and each value but setup_s is the quiet quartile of its
// per-slice figure (quietLow for times and costs, quietHigh for rates; see
// quietShare). The two kinds of workload read them as:
//
//	                 camp-* (one campaign = one answer)      serve-* (one reply = one answer)
//	answer_ms        one whole core.RunContext call,          the window's p50 round trip
//	                 golden run included (time to answer)
//	answer_tail_ms   the slowest answer of each block of      the window's p95 round trip
//	                 four consecutive campaigns
//	work_per_s       completed trials / campaign wall         replies / window length
//	cpu_us_per_work  process CPU / completed trials           process CPU / replies
//	setup_s          median of builder + golden run +         median of kvnode.New + listen
//	                 session build, timed directly            + first dial
var endToEnd = []metric{
	{Name: "answer_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "answer_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_work", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers (layer = Go package, the
// text before the first dot). A traced run reports all of them: the
// ladder metrics are measured in every traced run, the path metrics only
// where the workload runs that layer and 0 elsewhere. bench/README.md
// says which end-to-end metric each should move, on which workload.
var perLayer = []metric{
	// core: the campaign engine (camp-* only).
	{Name: "core.run_us_per_trial", Unit: "us", Better: "lower"},
	{Name: "core.harness_us_per_trial", Unit: "us", Better: "lower"},
	{Name: "core.golden_ms", Unit: "ms", Better: "lower"},
	{Name: "core.session_ms", Unit: "ms", Better: "lower"},
	{Name: "core.journal_append_us", Unit: "us", Better: "lower"},
	{Name: "core.fold_us_per_trial", Unit: "us", Better: "lower"},
	{Name: "core.par2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.trials_to_answer", Unit: "count", Better: "lower"},
	{Name: "core.alloc_bytes_per_trial", Unit: "bytes", Better: "lower"},
	{Name: "core.allocs_per_trial", Unit: "count", Better: "lower"},
	{Name: "core.aborted_trials", Unit: "count", Better: "lower"},
	{Name: "core.outcome.crash_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.outcome.incorrect_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.outcome.masked_overwrite_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.outcome.masked_logic_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.outcome.masked_latent_ratio", Unit: "ratio", Better: "higher"},
	// apps: the application kernels (camp-* only).
	{Name: "apps.serve_us_per_trial", Unit: "us", Better: "lower"},
	{Name: "apps.serve_us_per_request", Unit: "us", Better: "lower"},
	{Name: "apps.requests_per_trial", Unit: "count", Better: "lower"},
	{Name: "apps.crash_exit_ratio", Unit: "ratio", Better: "lower"},
	// inject (camp-* only).
	{Name: "inject.random_us", Unit: "us", Better: "lower"},
	// simmem: per trial (camp-* only), then the ladder.
	{Name: "simmem.restore_us", Unit: "us", Better: "lower"},
	{Name: "simmem.restore_dirty_pages", Unit: "count", Better: "lower"},
	{Name: "simmem.loads_per_trial", Unit: "count", Better: "lower"},
	{Name: "simmem.stores_per_trial", Unit: "count", Better: "lower"},
	{Name: "simmem.fastpath_load_ratio", Unit: "ratio", Better: "higher"},
	{Name: "simmem.tainted_words_end", Unit: "count", Better: "lower"},
	{Name: "simmem.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "simmem.load64_clean_ns", Unit: "ns", Better: "lower"},
	{Name: "simmem.load64_tainted_ns", Unit: "ns", Better: "lower"},
	{Name: "simmem.store64_ns", Unit: "ns", Better: "lower"},
	// ecc: per codeword (ladder).
	{Name: "ecc.parity.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "ecc.parity.decode_clean_ns", Unit: "ns", Better: "lower"},
	{Name: "ecc.parity.decode_1bit_ns", Unit: "ns", Better: "lower"},
	{Name: "ecc.secded.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "ecc.secded.decode_clean_ns", Unit: "ns", Better: "lower"},
	{Name: "ecc.secded.decode_1bit_ns", Unit: "ns", Better: "lower"},
	{Name: "ecc.dected.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "ecc.dected.decode_clean_ns", Unit: "ns", Better: "lower"},
	{Name: "ecc.dected.decode_1bit_ns", Unit: "ns", Better: "lower"},
	{Name: "ecc.chipkill.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "ecc.chipkill.decode_clean_ns", Unit: "ns", Better: "lower"},
	{Name: "ecc.chipkill.decode_1bit_ns", Unit: "ns", Better: "lower"},
	// kvstore (ladder).
	{Name: "kvstore.get_ns", Unit: "ns", Better: "lower"},
	{Name: "kvstore.set_ns", Unit: "ns", Better: "lower"},
	// kvnode: the ladder first, then the serving path (serve-* only).
	{Name: "kvnode.dispatch_get_ns", Unit: "ns", Better: "lower"},
	{Name: "kvnode.dispatch_set_ns", Unit: "ns", Better: "lower"},
	{Name: "kvnode.parse_format_ns", Unit: "ns", Better: "lower"},
	{Name: "kvnode.gate_scaling", Unit: "ratio", Better: "higher"},
	{Name: "kvnode.tcp_c1_p50_us", Unit: "us", Better: "lower"},
	{Name: "kvnode.socket_us", Unit: "us", Better: "lower"},
	{Name: "kvnode.get_p50_us", Unit: "us", Better: "lower"},
	{Name: "kvnode.set_p50_us", Unit: "us", Better: "lower"},
	{Name: "kvnode.op_wall_p99_us", Unit: "us", Better: "lower"},
	{Name: "kvnode.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "kvnode.corrected_total", Unit: "count", Better: "higher"},
	{Name: "kvnode.uncorrectable_total", Unit: "count", Better: "lower"},
	{Name: "kvnode.injections_total", Unit: "count", Better: "higher"},
	// obsv (camp-* only).
	{Name: "obsv.metrics_overhead_ratio", Unit: "ratio", Better: "lower"},
	// bench: what recording spans costs the traced pass itself.
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// result is one pass of one workload: --trace 0 fills the end-to-end
// metrics, --trace 1 the per-layer ones.
type result struct {
	Workload  string
	Traced    bool
	Attempted int64
	Failed    int64
	Values    map[string]float64
	// Problems lists every failed correctness check; empty means correct.
	Problems []string
	// Notes are human-readable lines (sample counts, maxima) printed with
	// the metrics and kept out of the machine-readable line.
	Notes []string
	// Exact holds the simulated statistics that must repeat exactly for
	// a seed; -update-expected writes them, every seed-1 run checks them.
	Exact exactStats
	// Spans is the traced pass's recorder (nil for --trace 0).
	Spans *recorder
	// Series holds the end-to-end pass's per-slice samples in run order
	// (one value per campaign or window), kept in the result document so
	// the host's drift inside a run can be read afterwards.
	Series map[string][]float64
}

func newResult(workload string, traced bool) *result {
	return &result{Workload: workload, Traced: traced, Values: map[string]float64{}}
}

func (r *result) set(name string, v float64)    { r.Values[name] = v }
func (r *result) notef(format string, a ...any) { r.Notes = append(r.Notes, fmt.Sprintf(format, a...)) }
func (r *result) problemf(format string, a ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, a...))
}
func (r *result) correct() bool { return len(r.Problems) == 0 }
func (r *result) declared() []metric {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// checkComplete flags end-to-end metrics the pass failed to produce, or
// produced as 0 (the contract wants end-to-end metrics that are never 0).
// Per-layer metrics may be 0: the layer is not on this workload's path.
func (r *result) checkComplete() {
	if r.Traced {
		return
	}
	for _, m := range endToEnd {
		if v, ok := r.Values[m.Name]; !ok || v <= 0 {
			r.problemf("end-to-end metric %s missing or not positive (%v)", m.Name, v)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the machine-readable last line of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) line() resultLine {
	l := resultLine{
		Correct:   r.correct(),
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range r.declared() {
		l.Metrics[m.Name] = metricValue{Value: r.Values[m.Name], Unit: m.Unit}
	}
	return l
}

func (r *result) writeLine(w io.Writer) error {
	b, err := json.Marshal(r.line())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// print renders the pass for a reader: every declared metric by name with
// its unit, then notes and problems.
func (r *result) print(w io.Writer) {
	pass := "end-to-end"
	if r.Traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s · %s · attempted %d · failed %d\n", r.Workload, pass, r.Attempted, r.Failed)
	for _, m := range r.declared() {
		v, ok := r.Values[m.Name]
		if !ok {
			fmt.Fprintf(w, "  %-40s %16s (layer not on this workload's path)\n", m.Name, "-")
			continue
		}
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", m.Name, v, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	sort.Strings(r.Problems)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAIL: %s\n", p)
	}
}
