// Command bench is hrmbench: the repository's one benchmark. It measures
// the two things a user of hrmsim waits for — a campaign's answer and a
// kv reply — end to end, and every layer under them from outside, by
// timing calls into the layers' public functions.
//
//	go run ./bench -seed 1                     every workload, both passes, every metric
//	go run ./bench -repeat 2                   two sets, gap vs bound per metric
//	go run ./bench -workload camp-kvstore-none-hard -seed 7 -seconds 40 -trace 0
//
// With -workload the last line of standard output is one JSON object
// (correct, attempted, failed, metrics); BENCHMARK.json at the repository
// root declares the workloads and metrics. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"hrmsim"
	"hrmsim/internal/faults"
	"hrmsim/internal/stats"
)

// schemaVersion identifies the layout of the result documents written
// under -out. Renaming or redefining a field bumps it.
const schemaVersion = 1

// scale sizes the work that does not follow -seconds. fullScale is the
// benchmark; smokeScale is the same code at toy sizes for the tests.
type scale struct {
	// setupSlice is how long one batch of set-up sampling lasts (at
	// least one sample): camp-* take a batch before every campaign,
	// serve-* ten before the run and ten after. setup_s is the median
	// of all the samples.
	setupSlice   time.Duration
	minCampaigns int // campaigns measured even if -seconds is shorter
	tailBlock    int // consecutive campaigns whose slowest answer is one tail sample
	trialCap     int // 0 = each workload's own campaign size
	keys         int // serving working set
	warmup       time.Duration
	window       time.Duration
	traceTrials  int // trials re-enacted in a traced campaign pass
	traceOps     int // ops per connection pass in a traced serving pass
	ladderIters  int // calls per ladder sample
	ladderRounds int // samples per rung (the rung is their median)
	gateSlice    time.Duration
}

var (
	fullScale = scale{
		setupSlice:   100 * time.Millisecond,
		minCampaigns: 4, tailBlock: 4, keys: 65536,
		warmup: 2 * time.Second, window: time.Second,
		traceTrials: 200, traceOps: 50000,
		ladderIters: 20000, ladderRounds: 5, gateSlice: 300 * time.Millisecond,
	}
	smokeScale = scale{
		setupSlice:   time.Millisecond,
		minCampaigns: 1, tailBlock: 2, trialCap: 40, keys: 2048,
		warmup: 20 * time.Millisecond, window: 40 * time.Millisecond,
		traceTrials: 8, traceOps: 200,
		ladderIters: 100, ladderRounds: 2, gateSlice: 5 * time.Millisecond,
	}
)

// options is one pass's settings.
type options struct {
	seed   int64
	budget time.Duration // how long the end-to-end pass measures
	smoke  bool
	sc     scale
	outDir string
	// campaigns, if positive, fixes the campaign count regardless of
	// budget (-update-expected commits more campaigns than a run
	// measures, so faster hosts still find their prefix).
	campaigns int
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	endToEnd  func(options) (*result, error)
	traced    func(options) (*result, error)
}

func campaignWorkload(c campaign) workload {
	return workload{name: c.name, why: c.why, endToEnd: c.endToEnd, traced: func(o options) (*result, error) {
		r, err := c.traced(o)
		if err != nil {
			return nil, err
		}
		return r, ladder(r, o)
	}}
}

func servingWorkload(s serving) workload {
	return workload{name: s.name, why: s.why, endToEnd: s.endToEnd, traced: func(o options) (*result, error) {
		r, err := s.traced(o)
		if err != nil {
			return nil, err
		}
		if err := ladder(r, o); err != nil {
			return nil, err
		}
		// What the socket adds over calling Dispatch directly, at this
		// workload's mix.
		dispatchUs := (s.readShare*r.Values["kvnode.dispatch_get_ns"] + (1-s.readShare)*r.Values["kvnode.dispatch_set_ns"]) / 1e3
		r.set("kvnode.socket_us", r.Values["kvnode.tcp_c1_p50_us"]-dispatchUs)
		return r, nil
	}}
}

// workloads are chosen so that each leans on different layers. All five
// run under `go run ./bench`; BENCHMARK.json declares the three (with the
// same why strings) that the driver's time limit has room for at 40 s a
// run: one serve-dominated campaign with the codec, one harness-dominated
// campaign without it, and the serving mix that writes and takes faults.
var workloads = []workload{
	campaignWorkload(campaign{
		name: "camp-websearch-secded-soft",
		why:  "read-only, serve-dominated trials (ms of Serve, us of restore): simmem load fast path, SEC-DED decode and the app kernel carry it; harness work is invisible here",
		app:  hrmsim.AppWebSearch, size: hrmsim.SizeMedium, secded: true,
		spec: faults.SingleBitSoft, warmNum: 9, warmDen: 10,
		rule:   stats.SequentialStopping{TargetHalfWidth: 0.005, Level: 0.90, MinTrials: 30, MaxTrials: 4000},
		trials: 4000,
	}),
	campaignWorkload(campaign{
		name: "camp-kvstore-none-hard",
		why:  "half-millisecond trials under a fixed journaled plan make the harness the story: restore, inject, classify, journal append, dispatch; no codec, so an ECC win must show no change here",
		app:  hrmsim.AppKVStore, size: hrmsim.SizeLarge,
		spec: faults.SingleBitHard, warmNum: 1, warmDen: 2,
		trials: 3000, journal: true,
	}),
	campaignWorkload(campaign{
		name: "camp-graphmine-none-soft",
		why:  "the same engine used differently: about 40% crashes, early exits, panic-to-crash conversion, store-heavy float kernels, and the masked-by-overwrite share an early-stop optimisation could save",
		app:  hrmsim.AppGraphMine, size: hrmsim.SizeLarge,
		spec: faults.SingleBitSoft, warmNum: 1, warmDen: 2,
		rule:   stats.SequentialStopping{TargetHalfWidth: 0.04, Level: 0.90, MinTrials: 30, MaxTrials: 4000},
		trials: 4000,
	}),
	servingWorkload(serving{
		name: "serve-get-secded",
		why:  "clean-memory serving, 95% GET over 65536 Zipf keys: socket, scan, parse and flush dominate the round trip, so protocol and IO work shows here and memory-engine work should not",
		ecc:  "secded", readShare: 0.95, zipfS: 1.1,
	}),
	servingWorkload(serving{
		name: "serve-mixed-faults-secded",
		why:  "50% SET beside GET with a bit flipped every 500 ops: store and encode path, per-word decode and correction on tainted reads, the injector taking the exclusion gate; SEC-DED must keep every reply right",
		ecc:  "secded", readShare: 0.50, zipfS: 1.1, injectEvery: 500,
	}),
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stamp identifies where and when a result document was measured.
type stamp struct {
	SchemaVersion int     `json:"schema_version"`
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Seed          int64   `json:"seed"`
	LoadAvg1      float64 `json:"loadavg_1min_at_start"`
	Started       string  `json:"started"`
}

func newStamp(seed int64) stamp {
	s := stamp{
		SchemaVersion: schemaVersion,
		Commit:        "unknown",
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Seed:          seed,
		Started:       time.Now().UTC().Format(time.RFC3339),
	}
	// The toolchain stamps VCS data into binaries built inside a git
	// checkout; a bare source tree has none.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		_, _ = fmt.Sscanf(string(b), "%f", &s.LoadAvg1)
	}
	return s
}

func (s stamp) String() string {
	return fmt.Sprintf("hrmbench schema %d · commit %s · %s · nproc %d · GOMAXPROCS %d · seed %d · load1 %.2f",
		s.SchemaVersion, s.Commit, s.GoVersion, s.NumCPU, s.GOMAXPROCS, s.Seed, s.LoadAvg1)
}

// document is what a pass leaves under -out: the stamp, the
// machine-readable line's content, and the notes.
type document struct {
	stamp
	Workload string               `json:"workload"`
	Traced   bool                 `json:"traced"`
	Result   resultLine           `json:"result"`
	Notes    []string             `json:"notes,omitempty"`
	Problems []string             `json:"problems,omitempty"`
	Series   map[string][]float64 `json:"series,omitempty"`
}

func writeDocument(dir string, st stamp, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pass := "end-to-end"
	if r.Traced {
		pass = "per-layer"
	}
	b, err := json.MarshalIndent(document{
		stamp: st, Workload: r.Workload, Traced: r.Traced,
		Result: r.line(), Notes: r.Notes, Problems: r.Problems, Series: r.Series,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.Workload+"."+pass+".json"), append(b, '\n'), 0o644)
}

// runPass runs one pass of one workload, applies the correctness gate and
// leaves its documents under o.outDir.
func runPass(w workload, traced bool, o options, st stamp, out io.Writer) (*result, error) {
	pass := w.endToEnd
	if traced {
		pass = w.traced
	}
	r, err := pass(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.checkComplete()
	checkExact(r, o)
	r.print(out)
	if r.Spans != nil {
		path, err := r.Spans.writeFile(o.outDir, w.name)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "  %d spans written to %s; self time (span minus children):\n", len(r.Spans.spans), path)
		printSelfTimes(out, selfTimes(r.Spans.spans))
	}
	return r, writeDocument(o.outDir, st, r)
}

// runSets runs, workload by workload, the end-to-end pass once per set and
// then the traced pass, and returns each set's end-to-end results by
// workload. The sets are interleaved — a workload's passes run one right
// after the other — because the reference host's speed drifts by a fifth
// over a few minutes: two values compared in one row should have seen
// the same stretch of it.
func runSets(sets int, o options, st stamp, out io.Writer) ([]map[string]*result, bool, error) {
	results := make([]map[string]*result, sets)
	for i := range results {
		results[i] = map[string]*result{}
	}
	ok := true
	for _, w := range workloads {
		for i := range results {
			r, err := runPass(w, false, o, st, out)
			if err != nil {
				return nil, false, err
			}
			results[i][w.name] = r
			ok = ok && r.correct()
		}
		t, err := runPass(w, true, o, st, out)
		if err != nil {
			return nil, false, err
		}
		ok = ok && t.correct()
	}
	return results, ok, nil
}

// compareSets prints, per workload and end-to-end metric, both sets'
// values, their relative gap, and whether the gap is inside the metric's
// bound: the evidence that two runs of the same code agree.
func compareSets(a, b map[string]*result, out io.Writer) bool {
	pass := true
	fmt.Fprintf(out, "%-28s %-16s %14s %14s %8s %7s\n", "workload", "metric", "set 1", "set 2", "gap", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			x, y := a[w.name].Values[m.Name], b[w.name].Values[m.Name]
			gap := relativeGap(x, y)
			verdict := "PASS"
			if gap > m.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(out, "%-28s %-16s %14.4f %14.4f %7.1f%% %6.0f%% %s\n", w.name, m.Name, x, y, 100*gap, 100*m.Bound, verdict)
		}
	}
	return pass
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload and end with the machine-readable line (default: all workloads, both passes)")
	seed := fs.Int64("seed", 1, "derives campaign seeds and client op streams; builder and store seeds stay 1")
	seconds := fs.Float64("seconds", 40, "how long an end-to-end pass measures")
	trace := fs.Int("trace", 0, "with -workload: 0 = end-to-end pass, 1 = traced per-layer pass")
	repeat := fs.Int("repeat", 1, "run this many full sets, interleaved workload by workload, and compare their end-to-end metrics")
	smoke := fs.Bool("smoke", false, "toy sizes: exercises every code path in a second or two, measures nothing")
	outDir := fs.String("out", filepath.Join("bench", "out"), "where spans, result documents and scratch journals go")
	update := fs.String("update-expected", "", "directory (bench/expected) to rewrite the seed-1 statistics into, instead of checking them")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0, -repeat >= 1, -trace 0 or 1")
	}

	// The load shape is part of the benchmark: two threads, two
	// campaign workers, two client connections.
	runtime.GOMAXPROCS(2)
	o := options{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), smoke: *smoke, sc: fullScale, outDir: *outDir}
	if *smoke {
		o.sc = smokeScale
	}
	st := newStamp(*seed)
	fmt.Fprintln(out, st)

	if *update != "" {
		return updateExpected(*update, o, st, out)
	}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
		}
		r, err := runPass(w, *trace == 1, o, st, out)
		if err != nil {
			return err
		}
		if err := r.writeLine(out); err != nil {
			return err
		}
		if !r.correct() {
			return fmt.Errorf("%s: %d correctness checks failed", w.name, len(r.Problems))
		}
		return nil
	}

	sets, allOK, err := runSets(*repeat, o, st, out)
	if err != nil {
		return err
	}
	for i := 1; i < len(sets); i++ {
		fmt.Fprintf(out, "\n#### set 1 vs set %d\n", i+1)
		if !compareSets(sets[0], sets[i], out) {
			allOK = false
		}
	}
	if !allOK {
		return fmt.Errorf("some checks failed (see FAIL lines above)")
	}
	return nil
}

// expectedCampaigns is how many campaigns -update-expected commits per
// camp-* workload: half as many again as a 40 s run measures on the
// reference host. A faster host checks these and runs on.
const expectedCampaigns = 48

func updateExpected(dir string, o options, st stamp, out io.Writer) error {
	if o.seed != expectedSeed || o.smoke {
		return fmt.Errorf("-update-expected records seed %d at full size", expectedSeed)
	}
	o.campaigns = expectedCampaigns
	for _, w := range workloads {
		for _, pass := range []func(options) (*result, error){w.endToEnd, w.traced} {
			r, err := pass(o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			r.print(out)
			if !r.correct() {
				return fmt.Errorf("%s: refusing to record statistics from a run that failed its invariants", w.name)
			}
			if err := writeExpected(dir, w.name, r.Exact); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "recorded %s\n", filepath.Join(dir, w.name+".json"))
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
