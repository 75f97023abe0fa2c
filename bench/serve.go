package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hrmsim/internal/chaos"
	"hrmsim/internal/kvnode"
	"hrmsim/internal/obsv"
)

// serving is a serve-* workload: one kvnode over loopback TCP, driven
// closed-loop by two in-process client connections (each sends its next
// request only when the reply to the last has arrived). Connection c's op
// stream is drawn from splitmix(-seed, c); the store seed stays 1.
type serving struct {
	name, why string
	ecc       string
	readShare float64
	zipfS     float64
	// injectEvery, if positive, flips one stored bit after every that
	// many client ops (counted across connections, so the fault rate
	// follows the work done, not the wall clock).
	injectEvery int64
}

const (
	storeSeed   = 1
	connections = 2
	// serveSetupBatches is how many set-up batches a serving run takes
	// before its windows, and again after them.
	serveSetupBatches = 10
	// replyTimeout bounds one round trip; a reply later than this is a
	// failed op.
	replyTimeout = 5 * time.Second
)

// node is one listening kvnode.
type node struct {
	srv    *kvnode.Server
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func (s serving) startNode(keys int) (*node, error) {
	srv, err := kvnode.New(kvnode.Config{Keys: keys, ECC: s.ecc, Seed: storeSeed, Registry: obsv.NewRegistry()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &node{srv: srv, addr: ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { n.done <- srv.Serve(ctx, ln) }()
	return n, nil
}

// setUp is what a serving deployment pays before its first reply, timed
// as setup_s: build and populate the store, listen, first dial.
func (s serving) setUp(keys int) (*node, *client, time.Duration, error) {
	t0 := time.Now()
	n, err := s.startNode(keys)
	if err != nil {
		return nil, nil, 0, err
	}
	c, err := dial(n.addr)
	if err != nil {
		return nil, nil, 0, err
	}
	return n, c, time.Since(t0), nil
}

// stop shuts the node down and waits for Serve to return. Clients must be
// closed first, or the drain waits for them.
func (n *node) stop() error {
	n.cancel()
	return <-n.done
}

// client is one protocol connection. It lives in bench/ so it is the same
// code on every commit the benchmark measures.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	cmd  []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, replyTimeout)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 4096)}, nil
}

func (c *client) close() { _ = c.conn.Close() }

// roundTrip sends c.cmd and reads the reply line, with a span around each
// half when rec is non-nil. The returned slice is valid until the next
// call.
func (c *client) roundTrip(rec *recorder, parent, unit int) ([]byte, error) {
	id := rec.begin("client.write", parent, unit)
	_, err := c.conn.Write(c.cmd)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("client.read", parent, unit)
	reply, err := c.br.ReadSlice('\n')
	rec.end(id)
	return reply, err
}

// load is the state the connections of one run share.
type load struct {
	s         serving
	keys      int
	valueSize int
	// ceilings[k] is the highest version any connection has assigned to
	// key k, raised before the SET is sent: no healthy reply can carry a
	// version above it.
	ceilings []atomic.Int64
	ops      atomic.Int64 // client ops so far, for the injection cadence
	injector *chaos.LocalInjector
	injected atomic.Int64

	mu       sync.Mutex
	failures []string // first few, for the report
}

func (s serving) newLoad(n *node, keys int, seed int64) (*load, error) {
	l := &load{s: s, keys: keys, valueSize: n.srv.App().ValueSize(), ceilings: make([]atomic.Int64, keys)}
	if s.injectEvery > 0 {
		all := make([]uint64, keys)
		for k := range all {
			all[k] = uint64(k)
		}
		inj, err := chaos.NewLocalInjector(n.srv, "hot", all, seed)
		if err != nil {
			return nil, err
		}
		l.injector = inj
	}
	return l, nil
}

func (l *load) fail(err error) {
	l.mu.Lock()
	if len(l.failures) < 5 {
		l.failures = append(l.failures, err.Error())
	}
	l.mu.Unlock()
}

// opStream draws one connection's ops.
type opStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func (l *load) stream(seed int64, conn int) opStream {
	rng := rand.New(rand.NewSource(splitmix(seed, conn)))
	return opStream{rng: rng, zipf: rand.NewZipf(rng, l.s.zipfS, 1, uint64(l.keys-1))}
}

// op is one completed client operation.
type op struct {
	get     bool
	rtt     time.Duration
	arrived time.Time
	failed  bool
	// broken marks a transport failure: the connection is unusable and
	// its loop stops rather than failing every remaining op.
	broken bool
}

// do performs one op on c: draw, send, await, verify, and — when this op
// is the injectEvery-th — inject.
func (l *load) do(c *client, st opStream, rec *recorder, unit int) op {
	key := st.zipf.Uint64()
	o := op{get: st.rng.Float64() < l.s.readShare}
	if o.get {
		c.cmd = strconv.AppendUint(append(c.cmd[:0], "get "...), key, 10)
	} else {
		ver := l.ceilings[key].Add(1)
		c.cmd = strconv.AppendUint(append(c.cmd[:0], "set "...), key, 10)
		c.cmd = strconv.AppendInt(append(c.cmd, ' '), ver, 10)
	}
	c.cmd = append(c.cmd, '\n')

	id := rec.begin("client.request", 0, unit)
	sent := time.Now()
	reply, err := c.roundTrip(rec, id, unit)
	o.arrived = time.Now()
	rec.end(id)
	o.rtt = o.arrived.Sub(sent)

	switch {
	case err != nil:
		o.broken = true
		err = fmt.Errorf("transport: %w", err)
	case o.get:
		err = checkGet(key, l.ceilings[key].Load(), l.valueSize, reply)
	case !bytes.Equal(bytes.TrimRight(reply, "\r\n"), []byte("STORED")):
		err = fmt.Errorf("set %d: reply %q", key, clip(reply))
	}
	if err != nil {
		o.failed = true
		l.fail(err)
	}

	if n := l.ops.Add(1); l.injector != nil && n%l.s.injectEvery == 0 {
		if _, err := l.injector.Inject(int(n/l.s.injectEvery) - 1); err != nil {
			o.failed = true
			l.fail(fmt.Errorf("inject: %w", err))
		} else {
			l.injected.Add(1)
		}
	}
	return o
}

// checkNode applies the serving invariants that hold for every seed.
func (l *load) checkNode(r *result, n *node) kvnode.Stats {
	st := n.srv.Stats()
	if st.Uncorrectable != 0 {
		r.problemf("server saw %d uncorrectable errors; SEC-DED must correct every single-bit fault", st.Uncorrectable)
	}
	if st.Faults != 0 {
		r.problemf("server answered %d ops with a memory fault", st.Faults)
	}
	for _, f := range l.failures {
		r.problemf("%s", f)
	}
	return st
}

func (s serving) endToEnd(o options) (*result, error) {
	r := newResult(s.name, false)

	// Set-up is sampled on spare nodes, half before the run and half
	// after it, so setup_s sees the same stretch of the host's drift as
	// the other metrics; the run's own node is one more sample.
	var setups []float64
	spare := func() (time.Duration, error) {
		n, c, d, err := s.setUp(o.sc.keys)
		if err != nil {
			return 0, err
		}
		c.close()
		return d, n.stop()
	}
	if err := sampleSetUp(&setups, serveSetupBatches*o.sc.setupSlice, spare); err != nil {
		return nil, err
	}
	clients := make([]*client, connections)
	n, first, d, err := s.setUp(o.sc.keys)
	if err != nil {
		return nil, err
	}
	clients[0] = first
	setups = append(setups, d.Seconds())
	for i := 1; i < connections; i++ {
		c, err := dial(n.addr)
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}
	l, err := s.newLoad(n, o.sc.keys, o.seed)
	if err != nil {
		return nil, err
	}

	// The run: warm-up, then equal windows. The window count follows
	// the run length; each window is one slice of the run.
	windows := int((o.budget - o.sc.warmup) / o.sc.window)
	if windows < 1 {
		windows = 1
	}
	total := o.sc.warmup + time.Duration(windows)*o.sc.window
	perConn := make([][]window, connections)
	// cpuAt[w] is the process's CPU time as window w opens (cpuAt[windows]
	// as the last one closes), sampled by connection 0 on its first reply
	// in the window, so CPU is charged window by window and not to the
	// warm-up.
	cpuAt := make([]float64, windows+1)
	var attempted, failed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci := range clients {
		perConn[ci] = make([]window, windows)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, st, mine := clients[ci], l.stream(o.seed, ci), perConn[ci]
			_ = c.conn.SetDeadline(t0.Add(total + replyTimeout))
			sampled := 0
			for now := time.Now(); now.Sub(t0) < total; {
				done := l.do(c, st, nil, ci)
				now = done.arrived
				attempted.Add(1)
				w := windowIndex(now.Sub(t0), o.sc.warmup, o.sc.window)
				if ci == 0 {
					for ; sampled <= min(w, windows); sampled++ {
						cpuAt[sampled] = cpuSeconds()
					}
				}
				if done.failed {
					failed.Add(1)
					if done.broken {
						return
					}
					continue
				}
				if w >= 0 && w < windows {
					mine[w] = append(mine[w], uint32(done.rtt))
				}
			}
		}(ci)
	}
	wg.Wait()

	st := l.checkNode(r, n)
	for _, c := range clients {
		c.close()
	}
	if err := n.stop(); err != nil {
		r.problemf("server: %v", err)
	}
	if err := sampleSetUp(&setups, serveSetupBatches*o.sc.setupSlice, spare); err != nil {
		return nil, err
	}

	var rates, p50s, p95s, p99s, cpus []float64
	replies := 0
	for w := 0; w < windows; w++ {
		var merged window
		for ci := range perConn {
			merged = append(merged, perConn[ci][w]...)
		}
		ws := reduceWindow(merged, o.sc.window)
		if ws.ops == 0 {
			r.problemf("window %d saw no replies", w)
			continue
		}
		replies += ws.ops
		rates = append(rates, ws.opsPerS)
		p50s = append(p50s, ws.p50)
		p95s = append(p95s, ws.p95)
		p99s = append(p99s, ws.p99)
		cpus = append(cpus, (cpuAt[w+1]-cpuAt[w])*1e6/float64(ws.ops))
	}
	r.Series = map[string][]float64{"window_ops_per_s": rates, "window_p50_us": p50s, "window_p95_us": p95s, "window_cpu_us_per_op": cpus}
	r.Attempted, r.Failed = attempted.Load(), failed.Load()
	r.set("answer_ms", quietLow(p50s)/1e3)
	// The tail is the window's p95, not its p99: on the reference host
	// the p99 of identical runs differs by up to 37 % (a neighbour taking
	// a core lands there first), which no bound the contract allows can
	// absorb; the p99 is printed beside it.
	r.set("answer_tail_ms", quietLow(p95s)/1e3)
	r.set("work_per_s", quietHigh(rates))
	// Server and the in-process client together; the client is bench/
	// code, the same on every commit.
	r.set("cpu_us_per_work", quietLow(cpus))
	r.set("setup_s", median(setups))
	r.notef("%d windows of %v after %v warm-up, %d replies in windows (about %d per window); p50 %.1f us, p95 %.1f us, p99 %.1f us (medians over windows), worst window p99 %.1f us",
		windows, o.sc.window, o.sc.warmup, replies, replies/windows, median(p50s), median(p95s), median(p99s), maxOf(p99s))
	r.notef("%d faults injected, %d corrected by the codec; set-up sampled %d times (max %.4f s)",
		l.injected.Load(), st.Corrected, len(setups), maxOf(setups))
	return r, nil
}

// single drives n ops down one connection from one goroutine and returns
// the round trips by kind, in microseconds.
func (l *load) single(c *client, st opStream, rec *recorder, n int) (gets, sets []float64, failed int64, wall time.Duration) {
	start := time.Now()
	for i := 0; i < n; i++ {
		done := l.do(c, st, rec, 0)
		if done.failed {
			failed++
			if done.broken {
				break
			}
			continue
		}
		us := float64(done.rtt) / 1e3
		if done.get {
			gets = append(gets, us)
		} else {
			sets = append(sets, us)
		}
	}
	return gets, sets, failed, time.Since(start)
}

func (s serving) traced(o options) (*result, error) {
	r := newResult(s.name, true)
	rec := newRecorder("conn")
	r.Spans = rec

	n, err := s.startNode(o.sc.keys)
	if err != nil {
		return nil, err
	}
	c, err := dial(n.addr)
	if err != nil {
		return nil, err
	}
	_ = c.conn.SetDeadline(time.Now().Add(2 * time.Minute))
	l, err := s.newLoad(n, o.sc.keys, o.seed)
	if err != nil {
		return nil, err
	}

	// The same op count twice down one connection: untraced for the
	// latencies, traced for the spans.
	st := l.stream(o.seed, 0)
	gets, sets, failedPlain, plain := l.single(c, st, nil, o.sc.traceOps)
	_, _, failedTraced, tracedWall := l.single(c, st, rec, o.sc.traceOps)
	r.Attempted = 2 * int64(o.sc.traceOps)
	r.Failed = failedPlain + failedTraced

	stats := l.checkNode(r, n)
	snap := n.srv.Registry().Snapshot()
	counters := n.srv.Space().Counters()
	c.close()
	if err := n.stop(); err != nil {
		r.problemf("server: %v", err)
	}

	all := append(append([]float64(nil), gets...), sets...)
	r.set("kvnode.tcp_c1_p50_us", median(all))
	r.set("kvnode.get_p50_us", median(gets))
	r.set("kvnode.set_p50_us", median(sets))
	if p99, ok := chaos.Percentile(obsv.HistogramSnapshot{}, snap.Histograms["kvserve_op_wall_us"], 0.99); ok {
		r.set("kvnode.op_wall_p99_us", p99)
	}
	if g := snap.Counters["kvserve_gets_total"]; g > 0 {
		r.set("kvnode.hit_ratio", float64(snap.Counters["kvserve_hits_total"])/float64(g))
	}
	r.set("kvnode.corrected_total", float64(stats.Corrected))
	r.set("kvnode.uncorrectable_total", float64(stats.Uncorrectable))
	r.set("kvnode.injections_total", float64(l.injected.Load()))
	r.set("bench.trace_overhead_ratio", tracedWall.Seconds()/plain.Seconds())

	r.Exact.Traced = map[string]int64{
		"ops":           stats.Ops,
		"gets":          snap.Counters["kvserve_gets_total"],
		"sets":          snap.Counters["kvserve_sets_total"],
		"hits":          snap.Counters["kvserve_hits_total"],
		"injections":    l.injected.Load(),
		"corrected":     int64(stats.Corrected),
		"uncorrectable": int64(stats.Uncorrectable),
		"loads":         int64(counters.Loads),
		"stores":        int64(counters.Stores),
	}
	r.notef("%d ops down one connection untraced in %.3f s, again traced in %.3f s", o.sc.traceOps, plain.Seconds(), tracedWall.Seconds())
	return r, nil
}
