package chaos

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"hrmsim/internal/obsv"
	"hrmsim/internal/trace"
)

// RoundTripTimeout bounds one command on an attached connection, dial
// included.
const RoundTripTimeout = 5 * time.Second

// Conn is one kvserve protocol connection: the transport of a run against
// an external node (`hrmsim chaos -attach`).
type Conn struct {
	conn net.Conn
	sc   *bufio.Scanner
	w    *bufio.Writer
}

// Dial connects to the kvserve node at addr.
func Dial(addr string) (*Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, RoundTripTimeout)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	return &Conn{conn: conn, sc: sc, w: bufio.NewWriter(conn)}, nil
}

// Do sends one command line and reads its one-line reply, both within
// RoundTripTimeout.
func (c *Conn) Do(line string) (string, error) {
	if err := c.conn.SetDeadline(time.Now().Add(RoundTripTimeout)); err != nil {
		return "", err
	}
	if _, err := c.w.WriteString(line + "\n"); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("connection closed by server")
	}
	return c.sc.Text(), nil
}

// Close closes the connection.
func (c *Conn) Close() error { return c.conn.Close() }

// ServerStats is the parsed `stats` protocol reply. Keys, ValueSize, ECC
// and Recover describe the node itself: the driver sizes its oracle and
// names the run from them.
type ServerStats struct {
	Ops, Injected, Faults               int64
	Corrected, Uncorrectable, Recovered int64
	Retired                             int64
	VNowMs                              int64
	Conns                               int64
	Keys, ValueSize                     int64
	ECC, Recover                        string
}

// parseStats reads a `STATS k=v ...` reply. Unknown keys are skipped, so
// a newer node's extra fields do not break an older driver.
func parseStats(resp string) (ServerStats, error) {
	fields := strings.Fields(resp)
	if len(fields) == 0 || fields[0] != "STATS" {
		return ServerStats{}, fmt.Errorf("chaos: unexpected stats response %q", resp)
	}
	var st ServerStats
	ints := map[string]*int64{
		"ops": &st.Ops, "injected": &st.Injected, "faults": &st.Faults,
		"corrected": &st.Corrected, "uncorrectable": &st.Uncorrectable,
		"recovered": &st.Recovered, "retired": &st.Retired,
		"vnow_ms": &st.VNowMs, "conns": &st.Conns,
		"keys": &st.Keys, "value_size": &st.ValueSize,
	}
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return ServerStats{}, fmt.Errorf("chaos: malformed stats field %q", f)
		}
		switch k {
		case "ecc":
			st.ECC = v
		case "recover":
			st.Recover = v
		default:
			dst, known := ints[k]
			if !known {
				continue
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return ServerStats{}, fmt.Errorf("chaos: stats field %q: %v", f, err)
			}
			*dst = n
		}
	}
	return st, nil
}

// counters bundles the kvload_* metric handles the driver's op stream
// feeds; phase reports are their deltas between boundaries.
type counters struct {
	ops, gets, sets *obsv.Counter
	errors          *obsv.Counter
	wrong, stale    *obsv.Counter
	latUs           *obsv.Histogram
}

func newCounters(reg *obsv.Registry) counters {
	return counters{
		ops:    reg.Counter("kvload_ops_total"),
		gets:   reg.Counter("kvload_gets_total"),
		sets:   reg.Counter("kvload_sets_total"),
		errors: reg.Counter("kvload_errors_total"),
		wrong:  reg.Counter("kvload_wrong_values_total"),
		stale:  reg.Counter("kvload_stale_values_total"),
		// 1µs … ~1s in quarter-decade steps.
		latUs: reg.Histogram("kvload_op_latency_us", obsv.ExpBuckets(1, 4, 11)),
	}
}

// classifyGet checks a GET response against the deterministic value oracle
// (trace.ValueFor) and the key's current version, and bumps the wrong- or
// stale-value counters accordingly. maxVersion is the version the driver
// last wrote to the key (0 = only the pre-populated value).
func (ct *counters) classifyGet(key uint64, maxVersion int64, valueSize int, resp string) {
	switch {
	case resp == "MISS":
		// Every key in the working set was pre-populated; a MISS means
		// the chain walk was corrupted into losing the entry.
		ct.wrong.Inc()
	case strings.HasPrefix(resp, "VALUE "):
		parts := strings.Fields(resp)
		if len(parts) != 3 {
			ct.wrong.Inc()
			return
		}
		ver, err := strconv.ParseUint(parts[1], 10, 32)
		if err != nil || int64(ver) > maxVersion {
			// A version never written is corruption, not staleness.
			ct.wrong.Inc()
			return
		}
		want := trace.ValueFor(key, uint32(ver), valueSize)
		got, err := hex.DecodeString(parts[2])
		if err != nil || !bytes.Equal(got, want) {
			ct.wrong.Inc()
			return
		}
		if int64(ver) < maxVersion {
			ct.stale.Inc()
		}
	default:
		// SERVER_ERROR or garbage: the serving path itself failed.
		ct.errors.Inc()
	}
}
