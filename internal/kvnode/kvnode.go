// Package kvnode implements the live key–value server node that
// cmd/kvserve runs and the chaos harness (internal/chaos, `hrmsim chaos`)
// experiments on: the simulated in-memory store of internal/apps/kvstore
// behind a memcached-like TCP text protocol, serving many concurrent
// connections while memory errors land in its address space. The chaos
// harness drives a self-hosted node through Dispatch alone, with no
// socket, and an external one over one TCP connection.
//
// Protocol (one command per line, responses one line each):
//
//	get <key>            -> VALUE <version> <hex bytes> | MISS | SERVER_ERROR ...
//	set <key> <version>  -> STORED | SERVER_ERROR ...
//	inject <soft|hard>   -> INJECTED <region> (one random error now)
//	stats                -> STATS k=v ... (ops, faults, recoveries, vnow_ms, conns,
//	                        and the node itself: keys, value_size, ecc, recover)
//	quit                 -> closes the connection
//
// Malformed input is answered defensively: blank commands, unknown verbs,
// bad arguments, and over-long lines all get a CLIENT_ERROR (the line
// length bound protects the scanner from unbounded buffering).
//
// Concurrency model: every connection runs in its own goroutine, but the
// simulated address space is a strictly serial device — each protocol
// command (and each fault injection) executes under the space's exclusion
// gate (simmem.Acquire/Release), so operations interleave at command
// granularity and injections always land between operations, never
// mid-access. All metrics are obsv atomics and safe to snapshot from the
// HTTP sidecar while requests are in flight.
package kvnode

import (
	"bufio"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"hrmsim/internal/apps/kvstore"
	"hrmsim/internal/ecc"
	"hrmsim/internal/faults"
	"hrmsim/internal/inject"
	"hrmsim/internal/obsv"
	"hrmsim/internal/recovery"
	"hrmsim/internal/simmem"
)

// Config parameterizes a server node.
type Config struct {
	// Keys is the pre-populated key count (default 1024).
	Keys int
	// ECC selects the heap protection: none|parity|secded|chipkill.
	ECC string
	// Seed drives store population and random injection targeting.
	Seed int64
	// Recover installs a software response on the heap:
	//
	//	""             uncorrectable errors crash the operation
	//	parr           Par+R word restore from the backing copy
	//	parr-page      Par+R whole-page restore (clears hard faults)
	//	parr-escalate  word restore, page retirement on repeat offenders
	//	retire         corrected-error-threshold page retirement
	//
	// Any non-empty value gives the heap a persistent backing copy
	// checkpointed at build time (kvstore.Config.HeapBacked).
	Recover string
	// RetireThreshold is the corrected-error count per page that
	// triggers retirement for Recover="retire" (default 2).
	RetireThreshold uint64
	// CheckpointEvery, when positive, installs a periodic checkpointer
	// that flushes the (backed) heap to persistent storage every
	// interval of virtual time — bounding Par+R staleness.
	CheckpointEvery time.Duration
	// MaxLine bounds accepted protocol line length in bytes (default
	// 4096); longer lines are answered with CLIENT_ERROR and the
	// connection is closed.
	MaxLine int
	// DrainTimeout bounds the graceful-shutdown wait for in-flight
	// connections before they are force-closed (default 5s).
	DrainTimeout time.Duration
	// Registry receives the kvserve_* metrics (created when nil).
	Registry *obsv.Registry
}

// BindFlags registers the node flags on fs, bound to cfg's fields — the
// one flag set behind `kvserve` and the self-hosted node of `hrmsim chaos`.
func (cfg *Config) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&cfg.Keys, "keys", 1024, "pre-populated key count")
	fs.StringVar(&cfg.ECC, "ecc", "none", "heap protection: none|parity|secded|chipkill")
	fs.Int64Var(&cfg.Seed, "seed", 1, "random seed: store population and fault placement (under hrmsim chaos also the op stream)")
	fs.StringVar(&cfg.Recover, "recover", "",
		"software recovery on the heap: parr|parr-page|parr-escalate|retire (empty = none)")
	fs.Uint64Var(&cfg.RetireThreshold, "retire-threshold", 2,
		"corrected errors per page before -recover retire replaces the frame")
	fs.DurationVar(&cfg.CheckpointEvery, "checkpoint", 0,
		"virtual-time interval between heap checkpoints (0 = build-time checkpoint only; needs -recover)")
}

// DefaultMaxLine is the protocol line-length bound when Config.MaxLine is
// zero: generous for every legal command (the longest is `set` with two
// uint64s) while keeping a hostile client from growing the scanner buffer
// without bound.
const DefaultMaxLine = 4096

// Server is one live kv node.
type Server struct {
	cfg Config
	app *kvstore.App

	// rng backs protocol-driven `inject` commands; guarded by the gate.
	rng *rand.Rand

	// recov is the installed recovery handler, nil without one.
	recov recovery.Reporter

	metrics *obsv.Registry
	// Pre-resolved metric handles (names per OBSERVABILITY.md).
	ops, gets, sets, hits, misses      *obsv.Counter
	injected, faultsC, clientErrs      *obsv.Counter
	connsTotal                         *obsv.Counter
	opWallUs                           *obsv.Histogram
	correctedGauge, uncorrectableGauge *obsv.Gauge
	recoveredGauge, retiredGauge       *obsv.Gauge
	connsOpen                          *obsv.Gauge

	// Connection tracking for graceful drain.
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	open  int
}

// New builds a server node: the pre-populated store plus protocol state.
func New(cfg Config) (*Server, error) {
	if cfg.Keys < 0 || cfg.MaxLine < 0 {
		return nil, fmt.Errorf("kvnode: negative key count %d or line bound %d", cfg.Keys, cfg.MaxLine)
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("kvnode: -checkpoint must not be negative, got %v", cfg.CheckpointEvery)
	}
	if cfg.Keys == 0 {
		cfg.Keys = 1024
	}
	if cfg.MaxLine == 0 {
		cfg.MaxLine = DefaultMaxLine
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.RetireThreshold == 0 {
		cfg.RetireThreshold = 2
	}
	var codec simmem.Codec
	switch cfg.ECC {
	case "", "none":
		cfg.ECC = "none"
	case "parity":
		codec = ecc.NewParity()
	case "secded":
		codec = ecc.NewSECDED()
	case "chipkill":
		codec = ecc.NewChipkill()
	default:
		return nil, fmt.Errorf("kvnode: unknown ecc %q", cfg.ECC)
	}

	kcfg := kvstore.DefaultConfig(cfg.Seed)
	kcfg.Keys = cfg.Keys
	kcfg.Ops = 1 // the recorded workload is unused; the network drives requests
	kcfg.HeapCodec = codec
	kcfg.RequestCost = time.Millisecond

	var mc simmem.MCHandler
	var reporter recovery.Reporter
	var retirer *recovery.Retirer
	switch cfg.Recover {
	case "":
	case "parr":
		h := &recovery.ParR{}
		mc, reporter = h, h
	case "parr-page":
		h := &recovery.ParR{WholePage: true}
		mc, reporter = h, h
	case "parr-escalate":
		h := recovery.NewParREscalating()
		mc, reporter = h, h
	case "retire":
		retirer = &recovery.Retirer{Threshold: cfg.RetireThreshold}
		reporter = retirer
	default:
		return nil, fmt.Errorf("kvnode: unknown recovery %q", cfg.Recover)
	}
	if cfg.Recover != "" {
		kcfg.HeapBacked = true
		kcfg.HeapMC = mc
	}

	b, err := kvstore.NewBuilder(kcfg)
	if err != nil {
		return nil, err
	}
	built, err := b.Build()
	if err != nil {
		return nil, err
	}
	app := built.(*kvstore.App)
	if retirer != nil {
		app.Space().AddECCObserver(retirer)
	}
	if cfg.CheckpointEvery > 0 {
		if cfg.Recover == "" {
			return nil, fmt.Errorf("kvnode: -checkpoint needs a recovery mode (the heap is only backed with one)")
		}
		cp, err := recovery.NewCheckpointer(app.Space().RegionByName("heap"), cfg.CheckpointEvery)
		if err != nil {
			return nil, err
		}
		app.Space().AddAccessObserver(cp)
	}

	reg := cfg.Registry
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	s := &Server{
		cfg:                cfg,
		app:                app,
		rng:                rand.New(rand.NewSource(cfg.Seed)),
		recov:              reporter,
		metrics:            reg,
		ops:                reg.Counter("kvserve_ops_total"),
		gets:               reg.Counter("kvserve_gets_total"),
		sets:               reg.Counter("kvserve_sets_total"),
		hits:               reg.Counter("kvserve_hits_total"),
		misses:             reg.Counter("kvserve_misses_total"),
		injected:           reg.Counter("kvserve_injections_total"),
		faultsC:            reg.Counter("kvserve_faults_total"),
		clientErrs:         reg.Counter("kvserve_client_errors_total"),
		connsTotal:         reg.Counter("kvserve_connections_total"),
		opWallUs:           reg.Histogram("kvserve_op_wall_us", obsv.ExpBuckets(1, 4, 10)),
		correctedGauge:     reg.Gauge("kvserve_ecc_corrected"),
		uncorrectableGauge: reg.Gauge("kvserve_ecc_uncorrectable"),
		recoveredGauge:     reg.Gauge("kvserve_recoveries"),
		retiredGauge:       reg.Gauge("kvserve_pages_retired"),
		connsOpen:          reg.Gauge("kvserve_conns_open"),
		conns:              make(map[net.Conn]struct{}),
	}
	return s, nil
}

// App exposes the underlying store (chaos injectors resolve hot-key value
// addresses through it; hold the gate).
func (s *Server) App() *kvstore.App { return s.app }

// Keys is the number of keys the store was populated with.
func (s *Server) Keys() int { return s.cfg.Keys }

// Space is the server's simulated memory. Any cross-goroutine access must
// hold its exclusion gate.
func (s *Server) Space() *simmem.AddressSpace { return s.app.Space() }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obsv.Registry { return s.metrics }

// Stats is a gate-consistent snapshot of the node's protection activity,
// for probes and the `stats` protocol command.
type Stats struct {
	Ops, Injected, Faults    int64
	Corrected, Uncorrectable uint64
	Recovered                uint64 // uncorrectable events repaired by the MC handler
	Retired                  int    // page frames retired
	VNow                     time.Duration
	Conns                    int
}

// Stats takes the gate and snapshots the node.
func (s *Server) Stats() Stats {
	s.app.Space().Acquire()
	defer s.app.Space().Release()
	return s.statsLocked()
}

// statsLocked assembles a Stats; the caller holds the gate.
func (s *Server) statsLocked() Stats {
	c := s.app.Space().Counters()
	st := Stats{
		Ops:           s.ops.Value(),
		Injected:      s.injected.Value(),
		Faults:        s.faultsC.Value(),
		Corrected:     c.Corrected,
		Uncorrectable: c.Uncorrectable,
		Recovered:     c.Recovered,
		VNow:          s.app.Space().Clock().Now(),
	}
	if s.recov != nil {
		st.Retired = s.recov.RecoveryStats().Retired
	}
	s.mu.Lock()
	st.Conns = s.open
	s.mu.Unlock()
	return st
}

// Serve accepts connections until ctx is cancelled (each served on its own
// goroutine), then drains: in-flight connections get DrainTimeout to
// finish before being force-closed. The listener is closed on return.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	defer func() { _ = ln.Close() }()
	go func() {
		<-ctx.Done()
		_ = ln.Close() // unblocks Accept
	}()
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				break
			}
			wg.Wait()
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Handle(conn)
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close() // unblocks the handler's Scan
		}
		s.mu.Unlock()
		<-done
	}
	return nil
}

// Handle serves one connection to completion (quit, EOF, write error, or
// oversized line).
func (s *Server) Handle(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.open++
	s.connsOpen.Set(float64(s.open))
	s.mu.Unlock()
	s.connsTotal.Inc()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.open--
		s.connsOpen.Set(float64(s.open))
		s.mu.Unlock()
	}()

	sc := bufio.NewScanner(conn)
	// The scanner's effective cap is max(cap(buf), limit), so the initial
	// buffer must not exceed MaxLine or the bound silently loosens.
	sc.Buffer(make([]byte, 0, min(512, s.cfg.MaxLine)), s.cfg.MaxLine)
	w := bufio.NewWriter(conn)
	defer func() { _ = w.Flush() }()
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "quit" {
			return
		}
		fmt.Fprintln(w, s.Dispatch(line))
		if err := w.Flush(); err != nil {
			return
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		// Defensive bound: report the violation instead of silently
		// dropping the connection, then close (the stream position is
		// unrecoverable mid-line).
		s.clientErrs.Inc()
		fmt.Fprintf(w, "CLIENT_ERROR line exceeds %d bytes\n", s.cfg.MaxLine)
	}
}

// Dispatch executes one protocol command under the exclusion gate and
// returns the response line.
func (s *Server) Dispatch(line string) string {
	start := time.Now()
	s.app.Space().Acquire()
	resp := s.execute(line)
	s.app.Space().Release()
	s.opWallUs.Observe(float64(time.Since(start)) / float64(time.Microsecond))
	if strings.HasPrefix(resp, "CLIENT_ERROR") {
		s.clientErrs.Inc()
	}
	return resp
}

// execute runs one command; the caller holds the gate.
func (s *Server) execute(line string) string {
	parts := strings.Fields(line)
	if len(parts) == 0 {
		return "CLIENT_ERROR empty command"
	}
	switch parts[0] {
	case "get":
		if len(parts) != 2 {
			return "CLIENT_ERROR usage: get <key>"
		}
		key, err := strconv.ParseUint(parts[1], 10, 64)
		if err != nil {
			return "CLIENT_ERROR bad key"
		}
		s.advanceClock()
		s.ops.Inc()
		s.gets.Inc()
		version, val, err := s.app.Get(key)
		if err != nil {
			if simmem.IsFault(err) {
				s.faultsC.Inc()
				s.updateGauges()
				return "SERVER_ERROR memory fault: " + err.Error()
			}
			s.misses.Inc()
			s.updateGauges()
			return "MISS"
		}
		s.hits.Inc()
		s.updateGauges()
		return fmt.Sprintf("VALUE %d %s", version, hex.EncodeToString(val))
	case "set":
		if len(parts) != 3 {
			return "CLIENT_ERROR usage: set <key> <version>"
		}
		key, err1 := strconv.ParseUint(parts[1], 10, 64)
		version, err2 := strconv.ParseUint(parts[2], 10, 32)
		if err1 != nil || err2 != nil {
			return "CLIENT_ERROR bad arguments"
		}
		s.advanceClock()
		s.ops.Inc()
		s.sets.Inc()
		if err := s.app.Set(key, uint32(version)); err != nil {
			if simmem.IsFault(err) {
				s.faultsC.Inc()
			}
			s.updateGauges()
			return "SERVER_ERROR " + err.Error()
		}
		s.updateGauges()
		return "STORED"
	case "inject":
		if len(parts) != 2 {
			return "CLIENT_ERROR usage: inject <soft|hard>"
		}
		spec := faults.SingleBitSoft
		if parts[1] == "hard" {
			spec = faults.SingleBitHard
		} else if parts[1] != "soft" {
			return "CLIENT_ERROR unknown error class"
		}
		inj, err := inject.Random(s.app.Space(), s.rng, spec, nil)
		if err != nil {
			return "SERVER_ERROR " + err.Error()
		}
		s.injected.Inc()
		return fmt.Sprintf("INJECTED %s @%#x bit %d",
			inj.Region.Name(), uint64(inj.Targets[0].Addr), inj.Targets[0].Bits[0])
	case "stats":
		st := s.statsLocked()
		recov := s.cfg.Recover
		if recov == "" {
			recov = "none"
		}
		return fmt.Sprintf(
			"STATS ops=%d injected=%d faults=%d corrected=%d uncorrectable=%d recovered=%d retired=%d vnow_ms=%d conns=%d keys=%d value_size=%d ecc=%s recover=%s",
			st.Ops, st.Injected, st.Faults, st.Corrected, st.Uncorrectable,
			st.Recovered, st.Retired, st.VNow.Milliseconds(), st.Conns,
			s.cfg.Keys, s.app.ValueSize(), s.cfg.ECC, recov)
	default:
		return "CLIENT_ERROR unknown command"
	}
}

// advanceClock moves virtual time by the per-request cost (client-facing
// ops only — stats polling and injections are instantaneous on the
// simulated clock).
func (s *Server) advanceClock() {
	s.app.Space().Clock().Advance(time.Millisecond)
}

// updateGauges refreshes the protection-state gauges; the caller holds
// the gate.
func (s *Server) updateGauges() {
	c := s.app.Space().Counters()
	s.correctedGauge.Set(float64(c.Corrected))
	s.uncorrectableGauge.Set(float64(c.Uncorrectable))
	s.recoveredGauge.Set(float64(c.Recovered))
	if s.recov != nil {
		s.retiredGauge.Set(float64(s.recov.RecoveryStats().Retired))
	}
}
