package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hrmsim/internal/apps"
	"hrmsim/internal/apps/graphmine"
	"hrmsim/internal/apps/kvstore"
	"hrmsim/internal/apps/websearch"
	"hrmsim/internal/ecc"
	"hrmsim/internal/faults"
	"hrmsim/internal/inject"
	"hrmsim/internal/monitor"
	"hrmsim/internal/obsv"
	"hrmsim/internal/simmem"
)

// replayAll is the reference side of the decide-vs-replay suites: every
// instance it builds carries an inert access observer from before the
// snapshot, which the engine must treat like a scrubber — a retained
// observer — and refuse to profile. Nothing else differs, so its
// campaigns inject and serve every trial, as the engine did before it
// could decide any. Like buildPerTrial and slowPathBuilder it exists on
// the test side only.
type replayAll struct{ apps.SnapshotBuilder }

type inertObserver struct{}

func (inertObserver) ObserveAccess(simmem.AccessEvent) {}

func (b replayAll) BuildSnapshot() (apps.SnapshotApp, error) {
	app, err := b.SnapshotBuilder.BuildSnapshot()
	if err != nil {
		return nil, err
	}
	app.Space().AddAccessObserver(inertObserver{})
	return app, nil
}

// decideBuilders are the three applications at test size with every
// region under codec (nil: unprotected).
var decideBuilders = map[string]func(*testing.T, simmem.Codec) apps.SnapshotBuilder{
	"websearch": func(t *testing.T, codec simmem.Codec) apps.SnapshotBuilder {
		cfg := websearch.DefaultConfig(17)
		cfg.Docs, cfg.Vocab, cfg.MinTerms, cfg.MaxTerms = 256, 128, 4, 12
		cfg.Queries, cfg.CacheSlots = 24, 32
		cfg.PrivateCodec, cfg.HeapCodec, cfg.StackCodec = codec, codec, codec
		b, err := websearch.NewBuilder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	},
	"kvstore": func(t *testing.T, codec simmem.Codec) apps.SnapshotBuilder {
		cfg := kvstore.DefaultConfig(17)
		cfg.Keys, cfg.Ops = 128, 200
		cfg.HeapCodec, cfg.StackCodec = codec, codec
		b, err := kvstore.NewBuilder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	},
	"graphmine": func(t *testing.T, codec simmem.Codec) apps.SnapshotBuilder {
		cfg := graphmine.DefaultConfig(17)
		cfg.Nodes, cfg.AvgDeg, cfg.Iterations, cfg.ChunkNodes, cfg.TopK = 256, 4, 2, 64, 20
		// A corrupted loop bound runs a request to its budget; keep that
		// cheap (a fault-free request here needs a few thousand operations).
		cfg.OpBudget = 50_000
		cfg.HeapCodec, cfg.StackCodec = codec, codec
		b, err := graphmine.NewBuilder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	},
}

// runMetered runs cfg with a fresh registry and returns both.
func runMetered(t *testing.T, cfg CampaignConfig) (*CampaignResult, obsv.Snapshot) {
	t.Helper()
	reg := obsv.NewRegistry()
	cfg.Metrics = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, reg.Snapshot()
}

// requireSameTrials fails on the first trial that differs.
func requireSameTrials(t *testing.T, what string, want, got []TrialResult) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	if len(want) != len(got) {
		t.Fatalf("%s: %d trials, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s: trial %d diverged:\nreplayed: %+v\ndecided:  %+v", what, i, want[i], got[i])
		}
	}
}

// requireSameRegistry compares a decided campaign's registry with the
// replayed reference's. Everything the engine registers must match but:
//
//   - campaign_trials_decided_total, the thing being varied (returned);
//   - simmem_fastpath_loads_total / _words_total: a decided trial serves
//     nothing and adds nothing, and what replay adds for it is not the
//     fault-free pass's figure either (a stuck bit in an unprotected
//     region taints its 64-byte granule, so neighbouring loads walk);
//   - campaign_trial_wall_ms (host clock) and
//     campaign_snapshot_dirty_pages (a restore rolls back the previous
//     trial on that worker, and a decided trial dirties nothing), whose
//     observation counts alone are the results'.
func requireSameRegistry(t *testing.T, what string, ref, dec obsv.Snapshot) (decided int64) {
	t.Helper()
	if got := ref.Counters["campaign_trials_decided_total"]; got != 0 {
		t.Fatalf("%s: the replay-everything reference decided %d trials", what, got)
	}
	for name, want := range ref.Counters {
		switch name {
		case "campaign_trials_decided_total", "simmem_fastpath_loads_total", "simmem_fastpath_words_total":
			continue
		}
		if got, ok := dec.Counters[name]; !ok || got != want {
			t.Errorf("%s: %s = %d (present %v), replay has %d", what, name, got, ok, want)
		}
	}
	if len(dec.Counters) != len(ref.Counters) {
		t.Errorf("%s: %d counters registered, replay has %d", what, len(dec.Counters), len(ref.Counters))
	}
	if !reflect.DeepEqual(dec.Gauges, ref.Gauges) {
		t.Errorf("%s: gauges %v, replay has %v", what, dec.Gauges, ref.Gauges)
	}
	if len(dec.Histograms) != len(ref.Histograms) {
		t.Errorf("%s: %d histograms registered, replay has %d", what, len(dec.Histograms), len(ref.Histograms))
	}
	for name, want := range ref.Histograms {
		got := dec.Histograms[name]
		switch name {
		case "campaign_trial_wall_ms", "campaign_snapshot_dirty_pages":
			if got.Count != want.Count {
				t.Errorf("%s: %s holds %d observations, replay has %d", what, name, got.Count, want.Count)
			}
		default:
			// Buckets, not Sum: float addition follows the order trials
			// finish in.
			if !reflect.DeepEqual(got.Counts, want.Counts) {
				t.Errorf("%s: %s buckets = %v, replay has %v", what, name, got.Counts, want.Counts)
			}
		}
	}
	return dec.Counters["campaign_trials_decided_total"]
}

// TestDecidedCampaignMatchesFullReplay is the correctness bar of deciding
// trials from the access profile: over every application, error type,
// protection, region filter and parallelism level, the campaign that
// decides what it can produces TrialResults deeply equal to — and a
// metrics registry equal, but for the documented exceptions, to — the
// campaign that injects and serves every trial.
func TestDecidedCampaignMatchesFullReplay(t *testing.T) {
	specs := map[string]faults.Spec{
		"soft-1bit": faults.SingleBitSoft,
		"hard-1bit": faults.SingleBitHard,
		"hard-2bit": {Class: faults.Hard, Bits: 2},
	}
	codecs := map[string]simmem.Codec{"none": nil, "secded": ecc.NewSECDED()}
	// The unfiltered draw is weighted by region size and almost never
	// lands on the stack, where first-touch-is-a-store lives.
	filters := map[string]func(*simmem.Region) bool{
		"any":   nil,
		"stack": inject.KindFilter(simmem.RegionStack),
	}
	for appName, mk := range decideBuilders {
		for codecName, codec := range codecs {
			t.Run(appName+"/"+codecName, func(t *testing.T) {
				t.Parallel()
				b := mk(t, codec)
				golden, err := GoldenRun(b)
				if err != nil {
					t.Fatal(err)
				}
				var decided, total int64
				for specName, spec := range specs {
					for filterName, filter := range filters {
						cfg := CampaignConfig{
							Spec: spec, Trials: 32, Seed: 31, Filter: filter,
							Warmup: len(golden) / 4, Golden: golden,
						}
						cfg.Builder, cfg.Parallelism = replayAll{b}, 1
						ref, refReg := runMetered(t, cfg)
						for _, par := range []int{1, 4} {
							what := fmt.Sprintf("%s/%s/par%d", specName, filterName, par)
							cfg.Builder, cfg.Parallelism = b, par
							dec, decReg := runMetered(t, cfg)
							requireSameTrials(t, what, ref.Trials, dec.Trials)
							n := requireSameRegistry(t, what, refReg, decReg)
							if masked := int64(dec.Count(OutcomeMaskedLatent) + dec.Count(OutcomeMaskedOverwrite)); n > masked {
								t.Errorf("%s: %d trials decided, only %d masked-latent or -overwrite", what, n, masked)
							}
							decided += n
							total += int64(len(dec.Trials))
						}
					}
				}
				if decided == 0 {
					t.Fatal("no trial was decided: the suite compared replay with replay")
				}
				t.Logf("%d of %d trials decided", decided, total)
			})
		}
	}
}

// TestDecidedCampaignMatchesBuildPerTrial composes the two references:
// deciding on the instance-swapping build-per-trial lifecycle (where a
// profile keyed to a stale space would be empty and decide everything)
// still equals full replay on the snapshot lifecycle.
func TestDecidedCampaignMatchesBuildPerTrial(t *testing.T) {
	b := decideBuilders["kvstore"](t, nil)
	golden, err := GoldenRun(b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{
		Spec: faults.SingleBitSoft, Trials: 40, Seed: 9, Parallelism: 1,
		Warmup: len(golden) / 4, Golden: golden,
	}
	cfg.Builder = replayAll{b}
	ref, refReg := runMetered(t, cfg)
	cfg.Builder = buildPerTrial{b}
	dec, decReg := runMetered(t, cfg)
	requireSameTrials(t, "build-per-trial", ref.Trials, dec.Trials)
	if n := requireSameRegistry(t, "build-per-trial", refReg, decReg); n == 0 {
		t.Error("no trial decided on the build-per-trial lifecycle")
	}
}

// TestDecideFallbacks: a golden run the fault-free pass does not
// reproduce fails the campaign. The fallbacks that keep the profile off,
// so that nothing is decided, are pinned elsewhere: observers the
// snapshot retains by replayAll, whose every campaign requireSameRegistry
// holds at zero decided trials; a profile that missed an access the
// instance counted by no test, because every access reaches the
// observers through the one front end that counts it.
func TestDecideFallbacks(t *testing.T) {
	b := decideBuilders["websearch"](t, nil)
	golden, err := GoldenRun(b)
	if err != nil {
		t.Fatal(err)
	}
	base := CampaignConfig{
		Builder: b, Spec: faults.SingleBitSoft, Trials: 30, Seed: 12, Parallelism: 2,
		Warmup: len(golden) / 4, Golden: golden,
	}
	t.Run("wrong-golden", func(t *testing.T) {
		// A supplied golden run only asserts: one the pass does not
		// reproduce fails the campaign, naming the request.
		cfg := base
		cfg.Golden = append([]uint64(nil), golden...)
		cfg.Golden[len(golden)-1] ^= 1
		_, err := Run(cfg)
		want := fmt.Sprintf("core: the supplied golden run differs from the recorded one at request %d", len(golden)-1)
		if err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
}

// TestDecidedCampaignJournalResumeShardMerge: a deciding campaign cut
// into two journaled shards, one of them interrupted and resumed from
// its journal, merges into the unsharded replay-everything result — a
// decided trial's record is an ordinary record.
func TestDecidedCampaignJournalResumeShardMerge(t *testing.T) {
	b := decideBuilders["kvstore"](t, nil)
	golden, err := GoldenRun(b)
	if err != nil {
		t.Fatal(err)
	}
	const trials, seed = 60, 44
	spec := faults.SingleBitHard
	base := CampaignConfig{
		Spec: spec, Trials: trials, Seed: seed, Parallelism: 2,
		Warmup: len(golden) / 4, Golden: golden,
	}
	ref := base
	ref.Builder = replayAll{b}
	whole, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	meta := journalMetaFor(b, spec, trials, seed)
	var decided int64
	runShard := func(idx int, interruptAt int) {
		t.Helper()
		shard := ShardSpec{Index: idx, Count: 2}
		jname := ShardJournalName(idx, 2)
		shardMeta := meta
		shardMeta.ShardIndex, shardMeta.ShardCount = idx, 2
		var res *CampaignResult
		for leg := 0; ; leg++ {
			j, _, err := OpenJournal(filepath.Join(dir, jname), shardMeta)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Builder, cfg.Shard, cfg.Journal = b, &shard, j
			reg := obsv.NewRegistry()
			cfg.Metrics = reg
			ctx, cancel := context.WithCancel(context.Background())
			cfg.Progress = func(p ShardProgress) {
				if leg == 0 && interruptAt > 0 && p.Done == interruptAt {
					cancel()
				}
			}
			if leg > 0 {
				cfg.Resume = readJournalFile(t, filepath.Join(dir, jname))
			}
			res, err = RunContext(ctx, cfg)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			// The facade's trailer: each leg ends the journal with one,
			// and the resumed leg's follows its own records.
			if err := j.Finish(JournalFinal{Resumed: res.Resumed, Interrupted: res.Interrupted}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			decided += reg.Snapshot().Counters["campaign_trials_decided_total"]
			if !res.Interrupted {
				break
			}
			if leg > 0 {
				t.Fatal("resumed shard was interrupted again")
			}
		}
	}
	runShard(0, 0)
	runShard(1, 7)

	_, merged, dups, err := MergeShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != trials || dups != 0 {
		t.Fatalf("merged %d records, %d duplicates; want a complete, duplicate-free union", len(merged), dups)
	}
	got := ResultFromTrials(b.AppName(), spec, trials, merged)
	requireSameTrials(t, "merged shards", whole.Trials, got.Trials)
	if decided == 0 {
		t.Error("the sharded campaign decided nothing")
	}
}

// countingBuilder counts the instances a campaign builds and, per request
// index, the Serve calls they answer. So that every worker of a pool of
// workers runs a trial, whichever finishes first, an instance's first
// trial waits at its restore until workers instances have reached theirs.
type countingBuilder struct {
	apps.SnapshotBuilder
	workers int
	builds  atomic.Int64
	serves  []atomic.Int64

	mu      sync.Mutex
	arrived int
	all     chan struct{}
}

func newCountingBuilder(b apps.SnapshotBuilder, workers, requests int) *countingBuilder {
	return &countingBuilder{SnapshotBuilder: b, workers: workers,
		serves: make([]atomic.Int64, requests), all: make(chan struct{})}
}

func (b *countingBuilder) Build() (apps.App, error) { return b.BuildSnapshot() }

func (b *countingBuilder) BuildSnapshot() (apps.SnapshotApp, error) {
	app, err := b.SnapshotBuilder.BuildSnapshot()
	if err != nil {
		return nil, err
	}
	// The first instance's first restore ends the fault-free pass.
	firstTrial := 1
	if b.builds.Add(1) == 1 {
		firstTrial = 2
	}
	return &countingApp{SnapshotApp: app, b: b, firstTrial: firstTrial}, nil
}

type countingApp struct {
	apps.SnapshotApp
	b                  *countingBuilder
	resets, firstTrial int
}

func (a *countingApp) Serve(q int) (apps.Response, error) {
	a.b.serves[q].Add(1)
	return a.SnapshotApp.Serve(q)
}

func (a *countingApp) Reset() (int, error) {
	if a.resets++; a.resets == a.firstTrial {
		a.b.mu.Lock()
		if a.b.arrived++; a.b.arrived == a.b.workers {
			close(a.b.all)
		}
		a.b.mu.Unlock()
		select {
		case <-a.b.all:
		case <-time.After(10 * time.Second):
		}
	}
	return a.SnapshotApp.Reset()
}

// TestOneFaultFreePass: a campaign builds one instance per worker and
// serves each request of its measured window fault-free exactly once —
// whether or not it is handed a golden run to assert, at any warm-up and
// parallelism — and each warm-up request once per instance; a grid of
// cells on one Prepared does the same in all (preparedCells). What the
// trials serve is subtracted: a decided trial serves nothing, a simulated
// one its Requests, plus the request it crashed in.
func TestOneFaultFreePass(t *testing.T) {
	for _, appName := range []string{"kvstore", "websearch"} {
		b := decideBuilders[appName](t, nil)
		golden, err := GoldenRun(b)
		if err != nil {
			t.Fatal(err)
		}
		n := len(golden)
		for _, warmup := range []int{0, n / 4} {
			for _, par := range []int{1, 4} {
				for _, supplied := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/warmup%d/par%d/golden-supplied=%v", appName, warmup, par, supplied), func(t *testing.T) {
						cb := newCountingBuilder(b, par, n)
						cfg := CampaignConfig{
							Builder: cb, Spec: faults.SingleBitHard, Trials: 24, Seed: 3,
							Warmup: warmup, Parallelism: par,
						}
						if supplied {
							cfg.Golden = golden
						}
						res, reg := runMetered(t, cfg)
						if got := cb.builds.Load(); got != int64(par) {
							t.Errorf("%d instances built, want %d", got, par)
						}
						// Every trial that did not crash served the whole
						// window unless it was decided.
						byTrials := make([]int64, n)
						notCrashed := int64(0)
						for _, tr := range res.Trials {
							if tr.Disposition != DispositionCompleted {
								t.Fatalf("trial %d aborted: %s", tr.Index, tr.AbortDetail)
							}
							if tr.Outcome != OutcomeCrash {
								notCrashed++
								continue
							}
							for q := warmup; q <= warmup+tr.Requests; q++ {
								byTrials[q]++
							}
						}
						served := notCrashed - reg.Counters["campaign_trials_decided_total"]
						for q := range byTrials {
							want := int64(1)
							if q < warmup {
								want = int64(par)
							} else {
								byTrials[q] += served
							}
							if got := cb.serves[q].Load() - byTrials[q]; got != want {
								t.Fatalf("request %d served fault-free %d times, want %d", q, got, want)
							}
						}
					})
				}
			}
		}
		t.Run(appName+"/prepared-cells", func(t *testing.T) {
			preparedCells(t, b, n)
		})
		t.Run(appName+"/warmup-rejected", func(t *testing.T) {
			cb := newCountingBuilder(b, 1, n)
			_, err := Run(CampaignConfig{Builder: cb, Spec: faults.SingleBitSoft, Trials: 4, Warmup: n})
			if want := fmt.Sprintf("core: warmup %d outside [0,%d)", n, n); err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
			for q := range cb.serves {
				if got := cb.serves[q].Load(); got != 0 {
					t.Fatalf("request %d served %d times before the warm-up was rejected", q, got)
				}
			}
		})
	}
}

// preparedCells runs a grid of cells on one Prepared — three error types,
// any region and stack only, the fixed and the adaptive plan, at
// parallelism 4 and then 1, and one shard — and requires four builds in
// all, one fault-free serve of each window request across every cell,
// and each cell's trials equal to its stand-alone campaign's: the pooled
// sessions carry nothing from one cell into the next.
func preparedCells(t *testing.T, b apps.SnapshotBuilder, n int) {
	const maxPar = 4
	warmup := n / 4
	cb := newCountingBuilder(b, maxPar, n)
	p, err := Prepare(cb, warmup)
	if err != nil {
		t.Fatal(err)
	}
	base := CampaignConfig{Builder: cb, Trials: 24, Seed: 5, Warmup: warmup}
	var cells []CampaignConfig
	// Parallelism 4 first: the counting builder holds each instance's
	// first trial until four instances have reached theirs.
	for _, par := range []int{maxPar, 1} {
		for _, spec := range []faults.Spec{faults.SingleBitSoft, faults.SingleBitHard, {Class: faults.Hard, Bits: 2}} {
			for _, filter := range []func(*simmem.Region) bool{nil, inject.KindFilter(simmem.RegionStack)} {
				for _, adaptive := range []bool{false, true} {
					cfg := base
					cfg.Spec, cfg.Filter, cfg.Parallelism = spec, filter, par
					if adaptive {
						cfg.Planner = NewAdaptivePlanner(testRule(0.2, 8, 24))
					}
					cells = append(cells, cfg)
				}
			}
		}
	}
	shard := base
	shard.Spec, shard.Parallelism, shard.Shard = faults.SingleBitHard, 2, &ShardSpec{Index: 1, Count: 2}
	cells = append(cells, shard)

	byTrials := make([]int64, n)
	for k, cfg := range cells {
		reg := obsv.NewRegistry()
		cfg.Metrics = reg
		got, err := p.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("cell %d: %v", k, err)
		}
		alone := cfg
		alone.Builder, alone.Metrics = b, nil
		want, err := Run(alone)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTrials(t, fmt.Sprintf("cell %d against its stand-alone campaign", k), want.Trials, got.Trials)
		// Subtract what the trials served: a decided trial nothing, a
		// crashed one up to its crash, any other the whole window.
		served := -reg.Snapshot().Counters["campaign_trials_decided_total"]
		for _, tr := range got.Trials {
			if tr.Disposition != DispositionCompleted {
				t.Fatalf("cell %d: trial %d aborted: %s", k, tr.Index, tr.AbortDetail)
			}
			if tr.Outcome != OutcomeCrash {
				served++
				continue
			}
			for q := warmup; q <= warmup+tr.Requests; q++ {
				byTrials[q]++
			}
		}
		for q := warmup; q < n; q++ {
			byTrials[q] += served
		}
	}
	builds := cb.builds.Load()
	if builds != maxPar {
		t.Errorf("%d instances built across %d cells, want %d", builds, len(cells), maxPar)
	}
	for q := range byTrials {
		// Each instance serves the warm-up once; the pass serves the
		// window once.
		want := int64(1)
		if q < warmup {
			want = builds
		}
		if got := cb.serves[q].Load() - byTrials[q]; got != want {
			t.Fatalf("request %d served fault-free %d times across %d cells, want %d", q, got, len(cells), want)
		}
	}
}

// readJournalFile reads back the records of a journal written earlier in
// the test.
func readJournalFile(t *testing.T, path string) map[int]TrialResult {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, recs, err := ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestDecideRules drives decide's two rules over a record of a protected
// and an unprotected region: never referenced decides latent, first
// overwritten whole decides a soft error only, anything else — or an
// address outside the record, or no record — simulates.
func TestDecideRules(t *testing.T) {
	as, err := simmem.New(simmem.Config{PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := as.AddRegion(simmem.RegionSpec{Name: "prot", Kind: simmem.RegionHeap, Size: 64, Codec: ecc.NewSECDED()})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := as.AddRegion(simmem.RegionSpec{Name: "bare", Kind: simmem.RegionStack, Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	prot.SetUsed(24) // three codewords
	bare.SetUsed(8)
	as.Clock().Advance(time.Second)
	p := monitor.New(as)
	p.End = time.Minute
	access := func(kind simmem.AccessKind, r *simmem.Region, off, n int) {
		p.ObserveAccess(simmem.AccessEvent{Addr: r.Base() + simmem.Addr(off), Len: n, Kind: kind, Region: r})
	}
	access(simmem.Store, prot, 0, 8)  // codeword 0: overwritten whole
	access(simmem.Store, prot, 10, 4) // codeword 1: partial store, decoded
	access(simmem.Store, bare, 2, 3)
	access(simmem.Load, bare, 4, 2)

	soft, hard := faults.SingleBitSoft, faults.SingleBitHard
	for _, tc := range []struct {
		r    *simmem.Region
		off  int
		spec faults.Spec
		want Outcome // 0: simulate
	}{
		{prot, 3, soft, OutcomeMaskedOverwrite},
		{prot, 3, hard, 0}, // a stuck bit outlives the store
		{prot, 9, soft, 0}, // byte 9 itself was never stored to first, but its codeword was decoded
		{prot, 20, soft, OutcomeMaskedLatent},
		{prot, 20, hard, OutcomeMaskedLatent},
		{prot, 24, soft, 0}, // past the used bytes
		{bare, 0, hard, OutcomeMaskedLatent},
		{bare, 3, soft, OutcomeMaskedOverwrite},
		{bare, 3, hard, 0},
		{bare, 5, soft, 0},
	} {
		tr, ok := decide(p, 3, tc.r.Base()+simmem.Addr(tc.off), tc.spec)
		if tc.want == 0 {
			if ok {
				t.Errorf("%s+%d %v: decided %v, want simulate", tc.r.Name(), tc.off, tc.spec, tr.Outcome)
			}
			continue
		}
		wantTR := TrialResult{
			Outcome: tc.want, Region: tc.r.Name(), Kind: tc.r.Kind(),
			InjectedAt: time.Second, Requests: 3, EndedAt: time.Minute,
		}
		if !ok || !reflect.DeepEqual(tr, wantTR) {
			t.Errorf("%s+%d %v: got %+v (decided %v), want %+v", tc.r.Name(), tc.off, tc.spec, tr, ok, wantTR)
		}
	}
	if _, ok := decide(nil, 3, prot.Base(), soft); ok {
		t.Error("a nil record decided a trial")
	}
}
