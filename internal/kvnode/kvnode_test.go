package kvnode

import (
	"bufio"
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hrmsim/internal/faults"
	"hrmsim/internal/inject"
	"hrmsim/internal/trace"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Keys == 0 {
		cfg.Keys = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestDispatchGetSet(t *testing.T) {
	srv := newTestServer(t, Config{})

	resp := srv.Dispatch("get 5")
	if !strings.HasPrefix(resp, "VALUE 0 ") {
		t.Fatalf("get: %q", resp)
	}
	wantVal := hex.EncodeToString(trace.ValueFor(5, 0, 64))
	if !strings.HasSuffix(resp, wantVal) {
		t.Errorf("get returned wrong bytes: %q", resp)
	}

	if resp := srv.Dispatch("set 5 3"); resp != "STORED" {
		t.Fatalf("set: %q", resp)
	}
	resp = srv.Dispatch("get 5")
	if !strings.HasPrefix(resp, "VALUE 3 ") {
		t.Errorf("get after set: %q", resp)
	}

	if resp := srv.Dispatch("get 9999"); resp != "MISS" {
		t.Errorf("missing key: %q", resp)
	}
}

func TestDispatchInjectAndStats(t *testing.T) {
	srv := newTestServer(t, Config{})
	resp := srv.Dispatch("inject soft")
	if !strings.HasPrefix(resp, "INJECTED ") {
		t.Fatalf("inject: %q", resp)
	}
	resp = srv.Dispatch("stats")
	for _, want := range []string{"injected=1", "vnow_ms=", "conns=0", "recovered=0",
		"keys=64", "value_size=64", "ecc=none", "recover=none"} {
		if !strings.Contains(resp, want) {
			t.Errorf("stats missing %q: %q", want, resp)
		}
	}
}

func TestDispatchClientErrors(t *testing.T) {
	srv := newTestServer(t, Config{})
	for _, cmd := range []string{
		"", "   ", "get", "get abc", "get -1", "set 1", "set a b",
		"set 1 99999999999999", "inject", "inject gamma", "frobnicate",
	} {
		if resp := srv.Dispatch(cmd); !strings.HasPrefix(resp, "CLIENT_ERROR") {
			t.Errorf("%q: %q", cmd, resp)
		}
	}
	if got := srv.Registry().Snapshot().Counters["kvserve_client_errors_total"]; got != 11 {
		t.Errorf("client_errors_total = %d, want 11", got)
	}
}

func TestECCServerCorrectsInjectedErrors(t *testing.T) {
	srv := newTestServer(t, Config{ECC: "secded"})
	before := srv.Dispatch("get 7")
	// Inject a burst of soft errors; SEC-DED should keep every value
	// intact.
	for i := 0; i < 50; i++ {
		if resp := srv.Dispatch("inject soft"); !strings.HasPrefix(resp, "INJECTED") {
			t.Fatalf("inject %d: %q", i, resp)
		}
	}
	after := srv.Dispatch("get 7")
	if before != after {
		t.Errorf("value changed despite SEC-DED:\n%q\n%q", before, after)
	}
	stats := srv.Dispatch("stats")
	if !strings.Contains(stats, "injected=50") {
		t.Errorf("stats: %q", stats)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{ECC: "rot13"}); err == nil {
		t.Error("unknown ecc accepted")
	}
	if _, err := New(Config{Recover: "pray"}); err == nil {
		t.Error("unknown recovery accepted")
	}
	if _, err := New(Config{CheckpointEvery: time.Minute}); err == nil {
		t.Error("checkpoint without recovery accepted")
	}
	for _, name := range []string{"none", "parity", "secded", "chipkill"} {
		if _, err := New(Config{Keys: 16, ECC: name, Seed: 1}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"parr", "parr-page", "parr-escalate", "retire"} {
		if _, err := New(Config{Keys: 16, ECC: "parity", Seed: 1, Recover: name}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Out-of-range settings are refused, not replaced by the defaults;
	// zero still means the default.
	if _, err := New(Config{Keys: -5}); err == nil {
		t.Error("negative key count accepted")
	}
	if _, err := New(Config{MaxLine: -1}); err == nil {
		t.Error("negative line bound accepted")
	}
	if _, err := New(Config{Recover: "parr", CheckpointEvery: -time.Second}); err == nil || !strings.Contains(err.Error(), "-checkpoint") {
		t.Errorf("negative checkpoint interval: err = %v, want one naming -checkpoint", err)
	}
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Keys() != 1024 {
		t.Errorf("zero Keys populated %d keys, want the default 1024", srv.Keys())
	}
	if resp := srv.Dispatch("get 1023"); !strings.HasPrefix(resp, "VALUE ") {
		t.Errorf("get 1023 on a default node: %q", resp)
	}
}

// FuzzDispatch: no input line panics the server, holds its gate, or
// answers anything but one line.
func FuzzDispatch(f *testing.F) {
	for _, seed := range []string{
		"get 5", "set 5 3", "get 9999", "inject soft", "inject hard", "stats", "quit",
		"", "   ", "get", "get abc", "get -1", "get 0x10", "set 1", "set a b",
		"set 1 99999999999999", "inject", "inject gamma", "frobnicate", "zz 1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		srv, err := New(Config{Keys: 16, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		resp := srv.Dispatch(line)
		if resp == "" || strings.Contains(resp, "\n") {
			t.Fatalf("Dispatch(%q) = %q, want one non-empty line", line, resp)
		}
		done := make(chan struct{})
		go func() {
			srv.Stats()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("Dispatch(%q) left the gate held", line)
		}
	})
}

// TestParRRecoversUnderProtocol pins the online-recovery path: a parity
// server with Par+R serves the correct value after its bytes are
// corrupted — the parity detection raises an MC event and the handler
// restores the word from the backing checkpoint instead of crashing.
func TestParRRecoversUnderProtocol(t *testing.T) {
	srv := newTestServer(t, Config{ECC: "parity", Recover: "parr"})
	want := srv.Dispatch("get 3")

	addr, err := srv.App().ValueAddr(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Space().FlipBit(addr, 5); err != nil {
		t.Fatal(err)
	}

	if got := srv.Dispatch("get 3"); got != want {
		t.Errorf("Par+R did not restore the value:\nwant %q\ngot  %q", want, got)
	}
	st := srv.Stats()
	if st.Recovered == 0 {
		t.Errorf("stats recovered = 0 after Par+R repair: %+v", st)
	}
}

// dialTestServer starts Serve on a loopback listener and returns its
// address plus a cancel that triggers graceful drain.
func dialTestServer(t *testing.T, srv *Server) (addr string, cancel func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		stop()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String(), stop
}

type protoConn struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Scanner
}

func dialProto(t *testing.T, addr string) *protoConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// A protocol regression must fail the test, not hang it.
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	t.Cleanup(func() { _ = conn.Close() })
	return &protoConn{t: t, conn: conn, r: bufio.NewScanner(conn)}
}

// quit sends the command that closes the connection server-side; no
// response line is expected.
func (c *protoConn) quit() {
	c.t.Helper()
	if _, err := fmt.Fprintln(c.conn, "quit"); err != nil {
		c.t.Fatal(err)
	}
}

func (c *protoConn) send(cmd string) string {
	c.t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", cmd); err != nil {
		c.t.Fatal(err)
	}
	if !c.r.Scan() {
		c.t.Fatalf("no response to %q: %v", cmd, c.r.Err())
	}
	return c.r.Text()
}

func TestProtocolEdgeCasesOverConnection(t *testing.T) {
	srv := newTestServer(t, Config{MaxLine: 128})
	addr, _ := dialTestServer(t, srv)
	c := dialProto(t, addr)

	if resp := c.send(""); resp != "CLIENT_ERROR empty command" {
		t.Errorf("empty line: %q", resp)
	}
	if resp := c.send("zz 1"); resp != "CLIENT_ERROR unknown command" {
		t.Errorf("unknown verb: %q", resp)
	}
	if resp := c.send("get 0x10"); resp != "CLIENT_ERROR bad key" {
		t.Errorf("bad hex key: %q", resp)
	}
	if resp := c.send("get 1"); !strings.HasPrefix(resp, "VALUE ") {
		t.Errorf("get: %q", resp)
	}

	// An oversized line must be answered and the connection closed, not
	// silently dropped.
	if resp := c.send("get " + strings.Repeat("9", 200)); !strings.HasPrefix(resp, "CLIENT_ERROR line exceeds") {
		t.Errorf("long line: %q", resp)
	}
	if c.r.Scan() {
		t.Errorf("connection still open after oversized line: %q", c.r.Text())
	}
}

// TestTornLineAtEOF half-closes the write side after a command with no
// trailing newline: the server must still serve the torn final line.
func TestTornLineAtEOF(t *testing.T) {
	srv := newTestServer(t, Config{})
	addr, _ := dialTestServer(t, srv)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write([]byte("get 2")); err != nil { // no \n
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewScanner(conn)
	if !r.Scan() {
		t.Fatalf("no response to torn line: %v", r.Err())
	}
	if !strings.HasPrefix(r.Text(), "VALUE ") {
		t.Errorf("torn line: %q", r.Text())
	}
}

// TestConcurrentConnectionsWithInjection is the race-detector pin for the
// chaos seam: many client goroutines hammer the server over TCP while an
// injector goroutine corrupts the shared address space under the gate.
func TestConcurrentConnectionsWithInjection(t *testing.T) {
	srv := newTestServer(t, Config{Keys: 128, ECC: "secded"})
	addr, _ := dialTestServer(t, srv)

	const clients, opsPer = 8, 60
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialProto(t, addr)
			rng := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < opsPer; j++ {
				key := rng.Intn(128)
				var resp string
				if rng.Float64() < 0.9 {
					resp = c.send(fmt.Sprintf("get %d", key))
				} else {
					resp = c.send(fmt.Sprintf("set %d %d", key, j))
				}
				if strings.HasPrefix(resp, "CLIENT_ERROR") {
					t.Errorf("client %d: %q", i, resp)
					return
				}
			}
			c.quit()
		}(i)
	}
	// Concurrent direct injection through the gate (the chaos harness
	// path), interleaved with protocol-driven injection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 50; i++ {
			err := srv.Space().Exclusive(func() error {
				_, err := inject.Random(srv.Space(), rng, faults.SingleBitSoft, nil)
				return err
			})
			if err != nil {
				t.Errorf("inject %d: %v", i, err)
				return
			}
		}
	}()
	c := dialProto(t, addr)
	for i := 0; i < 20; i++ {
		if resp := c.send("inject soft"); !strings.HasPrefix(resp, "INJECTED") {
			t.Errorf("protocol inject: %q", resp)
		}
		c.send("stats")
	}
	wg.Wait()

	snap := srv.Registry().Snapshot()
	if got := snap.Counters["kvserve_ops_total"]; got != clients*opsPer {
		t.Errorf("kvserve_ops_total = %d, want %d", got, clients*opsPer)
	}
	if got := snap.Counters["kvserve_connections_total"]; got != clients+1 {
		t.Errorf("kvserve_connections_total = %d, want %d", got, clients+1)
	}
}

// TestGracefulDrain cancels Serve while connections are open and checks
// the open-connection gauge returns to zero (force-close path included).
func TestGracefulDrain(t *testing.T) {
	srv := newTestServer(t, Config{DrainTimeout: 50 * time.Millisecond})
	addr, cancel := dialTestServer(t, srv)
	c := dialProto(t, addr)
	if resp := c.send("get 1"); !strings.HasPrefix(resp, "VALUE") {
		t.Fatalf("get: %q", resp)
	}
	// Leave the connection idle (blocked in the server's Scan) and shut
	// down: the drain must force-close it after DrainTimeout.
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Registry().Snapshot().Gauges["kvserve_conns_open"] == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("connections not drained")
}
