package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"hrmsim/internal/obsv"
)

// zipfS is the key-popularity skew of the op stream, the exponent the
// campaign traces use.
const zipfS = 1.1

// Config is one chaos run.
type Config struct {
	// Do sends one protocol line to the node and returns its reply:
	// kvnode.Server.Dispatch in-process, or Conn.Do over TCP. Required.
	Do func(line string) (string, error)
	// Steady, Chaos and Recovery are the phase lengths in stream
	// operations.
	Steady, Chaos, Recovery int
	// Injections is the fault count; fault k lands before operation
	// k·Chaos/Injections of the chaos phase.
	Injections int
	// Injector places each fault in-process (hot placement) and names the
	// key it hit, which the driver reads back at once. Nil sends the
	// node's own `inject soft` through Do (random placement, nothing to
	// read back).
	Injector *LocalInjector
	// ReadFraction is the GET share of the op stream, in [0, 1]; 0 means
	// SETs only, apart from the read-backs.
	ReadFraction float64
	// Seed drives the op stream's keys and GET/SET draws.
	Seed int64
	// Registry receives the kvload_* and chaos_* metrics (created when
	// nil).
	Registry *obsv.Registry
}

func (cfg *Config) validate() error {
	if cfg.Do == nil {
		return fmt.Errorf("chaos: a run needs a transport")
	}
	for _, c := range []struct {
		flag string
		n    int
	}{{"-steady", cfg.Steady}, {"-chaos", cfg.Chaos}, {"-recovery", cfg.Recovery}, {"-injections", cfg.Injections}} {
		if c.n < 0 {
			return fmt.Errorf("chaos: %s must not be negative, got %d", c.flag, c.n)
		}
	}
	if cfg.Injections > 0 && cfg.Chaos == 0 {
		return fmt.Errorf("chaos: %d -injections need a non-empty -chaos phase", cfg.Injections)
	}
	if !(cfg.ReadFraction >= 0 && cfg.ReadFraction <= 1) {
		return fmt.Errorf("chaos: -read-fraction %v outside [0,1]", cfg.ReadFraction)
	}
	return nil
}

// driver is the single writer of a run: it owns the op stream, the
// oracle's per-key versions and the metric handles.
type driver struct {
	cfg        Config
	reg        *obsv.Registry
	ct         counters
	injections *obsv.Counter
	probeReads *obsv.Counter
	// versions[k] is the version last written to key k; the node
	// pre-populates version 0.
	versions  []int64
	valueSize int
}

// boundary is what the driver reads between phases: its own counters
// and the node's stats.
type boundary struct {
	client obsv.Snapshot
	server ServerStats
}

// Run drives the steady → chaos → recovery op stream through cfg.Do and
// returns its verdict.
func Run(cfg Config) (*Verdict, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	d := &driver{
		cfg:        cfg,
		reg:        reg,
		ct:         newCounters(reg),
		injections: reg.Counter("chaos_injections_total"),
		probeReads: reg.Counter("chaos_probe_reads_total"),
	}
	sloEvals := reg.Counter("chaos_slo_evaluations_total")
	sloFailures := reg.Counter("chaos_slo_failures_total")

	start, err := d.boundary()
	if err != nil {
		return nil, err
	}
	node := start.server
	if node.Keys < 1 || node.ValueSize < 1 {
		return nil, fmt.Errorf("chaos: the node's stats reply names no keys= or value_size=")
	}
	d.versions = make([]int64, node.Keys)
	d.valueSize = int(node.ValueSize)
	recovering := node.Recover != "" && node.Recover != "none"

	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(node.Keys-1))
	phases := []struct {
		name string
		ops  int
	}{{PhaseSteady, cfg.Steady}, {PhaseChaos, cfg.Chaos}, {PhaseRecovery, cfg.Recovery}}
	reports := make([]PhaseReport, 0, len(phases))
	for _, ph := range phases {
		t0 := time.Now()
		var applied int64
		next := 0 // the next fault of the schedule
		for i := 0; i < ph.ops; i++ {
			for ph.name == PhaseChaos && next < cfg.Injections && next*ph.ops/cfg.Injections <= i {
				err := d.inject(next)
				if errors.Is(err, ErrScheduleExhausted) {
					next = cfg.Injections
					break
				}
				if err != nil {
					return nil, fmt.Errorf("chaos: injection %d: %w", next, err)
				}
				applied++
				next++
			}
			key := zipf.Uint64()
			if rng.Float64() < cfg.ReadFraction {
				err = d.get(key)
			} else {
				err = d.set(key)
			}
			if err != nil {
				return nil, fmt.Errorf("chaos: %s phase, op %d: %w", ph.name, i, err)
			}
		}
		end, err := d.boundary()
		if err != nil {
			return nil, err
		}
		r := window(ph.name, start, end)
		r.Injections = applied
		r.DurationMs = time.Since(t0).Milliseconds()
		reports = append(reports, r)
		start = end
	}

	results, pass := evaluate(objectives(recovering), reports)
	sloEvals.Add(int64(len(results)))
	for _, r := range results {
		if !r.Pass {
			sloFailures.Inc()
		}
	}
	name := "kvserve-" + node.ECC
	if recovering {
		name += "+" + node.Recover
	}
	return &Verdict{
		SchemaVersion: VerdictSchemaVersion,
		Experiment:    name,
		Seed:          cfg.Seed,
		Phases:        reports,
		Results:       results,
		Pass:          pass,
	}, nil
}

// boundary reads the node's stats through the transport.
func (d *driver) boundary() (boundary, error) {
	reply, err := d.cfg.Do("stats")
	if err != nil {
		return boundary{}, fmt.Errorf("chaos: stats: %w", err)
	}
	st, err := parseStats(reply)
	if err != nil {
		return boundary{}, err
	}
	return boundary{client: d.reg.Snapshot(), server: st}, nil
}

// inject applies fault k and, when the injector names the key it hit,
// reads that key back so the fault is witnessed inside the chaos phase.
func (d *driver) inject(k int) error {
	key := int64(-1)
	if d.cfg.Injector != nil {
		var err error
		if key, err = d.cfg.Injector.Inject(k); err != nil {
			return err
		}
	} else {
		reply, err := d.cfg.Do("inject soft")
		if err != nil {
			return err
		}
		if !strings.HasPrefix(reply, "INJECTED") {
			return fmt.Errorf("inject refused: %q", reply)
		}
	}
	d.injections.Inc()
	if key < 0 {
		return nil
	}
	if key >= int64(len(d.versions)) {
		return fmt.Errorf("injected key %d outside the node's %d keys", key, len(d.versions))
	}
	d.probeReads.Inc()
	return d.get(uint64(key))
}

// get issues one GET and checks its reply against the oracle.
func (d *driver) get(key uint64) error {
	reply, err := d.roundTrip(fmt.Sprintf("get %d", key))
	if err != nil {
		return err
	}
	d.ct.gets.Inc()
	d.ct.classifyGet(key, d.versions[key], d.valueSize, reply)
	return nil
}

// set writes the key's next version.
func (d *driver) set(key uint64) error {
	d.versions[key]++
	reply, err := d.roundTrip(fmt.Sprintf("set %d %d", key, d.versions[key]))
	if err != nil {
		return err
	}
	d.ct.sets.Inc()
	if reply != "STORED" {
		d.ct.errors.Inc()
	}
	return nil
}

// roundTrip sends one GET or SET, timing it on the wall clock.
func (d *driver) roundTrip(line string) (string, error) {
	t0 := time.Now()
	reply, err := d.cfg.Do(line)
	if err != nil {
		return "", fmt.Errorf("%q: %w", line, err)
	}
	d.ct.latUs.Observe(float64(time.Since(t0)) / float64(time.Microsecond))
	d.ct.ops.Inc()
	return reply, nil
}

// window derives the PhaseReport for the span between two boundaries.
func window(phase string, start, end boundary) PhaseReport {
	cd := func(name string) int64 {
		return end.client.Counters[name] - start.client.Counters[name]
	}
	p := PhaseReport{
		Phase:          phase,
		StartVirtualMs: start.server.VNowMs,
		EndVirtualMs:   end.server.VNowMs,
		Ops:            cd("kvload_ops_total"),
		Gets:           cd("kvload_gets_total"),
		Sets:           cd("kvload_sets_total"),
		Errors:         cd("kvload_errors_total"),
		WrongValues:    cd("kvload_wrong_values_total"),
		StaleValues:    cd("kvload_stale_values_total"),
		Corrected:      end.server.Corrected - start.server.Corrected,
		Uncorrectable:  end.server.Uncorrectable - start.server.Uncorrectable,
		Recovered:      end.server.Recovered - start.server.Recovered,
		Retired:        end.server.Retired - start.server.Retired,
		Signals:        map[string]float64{},
	}
	// Recovery signals are always measurable (a zero delta is a real
	// observation).
	p.Signals[SignalRecoveries] = float64(p.Recovered)
	p.Signals[SignalRetiredPages] = float64(p.Retired)
	if p.Ops > 0 {
		p.Signals[SignalErrorRate] = float64(p.Errors) / float64(p.Ops)
	}
	if p.Gets > 0 {
		p.Signals[SignalWrongValueRate] = float64(p.WrongValues) / float64(p.Gets)
	}
	hs, he := start.client.Histograms["kvload_op_latency_us"], end.client.Histograms["kvload_op_latency_us"]
	if v, ok := Percentile(hs, he, 0.50); ok {
		p.WallP50Us = v
	}
	if v, ok := Percentile(hs, he, 0.99); ok {
		p.WallP99Us = v
	}
	return p
}
