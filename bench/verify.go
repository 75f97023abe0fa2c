package main

import (
	"bytes"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"

	"hrmsim/internal/trace"
)

// expectedSeed is the seed whose simulated statistics are committed under
// expected/ and must repeat exactly. Other seeds are held to the
// invariants only.
const expectedSeed = 1

//go:embed expected/*.json
var expectedFS embed.FS

// campaignStats is what one end-to-end campaign must reproduce exactly: a
// change meant only to make the simulator faster leaves all of it alone.
type campaignStats struct {
	Seed      int64          `json:"seed"`
	Planned   int            `json:"planned"`
	Completed int            `json:"completed"`
	Aborted   int            `json:"aborted"`
	Outcomes  map[string]int `json:"outcomes"`
	Requests  int64          `json:"requests"`
	Incorrect int64          `json:"incorrect"`
}

// invariants checks what must hold for any seed: every completed trial
// has exactly one outcome, and the plan is fully accounted for.
func (c campaignStats) invariants() error {
	sum := 0
	for _, n := range c.Outcomes {
		sum += n
	}
	if sum != c.Completed {
		return fmt.Errorf("outcomes sum to %d, completed %d", sum, c.Completed)
	}
	if c.Completed+c.Aborted != c.Planned {
		return fmt.Errorf("completed %d + aborted %d != planned %d", c.Completed, c.Aborted, c.Planned)
	}
	return nil
}

// exactStats are the simulated statistics of one workload at one seed.
// The end-to-end pass fills Campaigns (camp-* only: a serving run's op
// count follows the host's speed, so it has nothing exact and is held to
// reply verification instead); the traced pass, which does a fixed amount
// of single-goroutine work, fills Traced for every workload.
type exactStats struct {
	Campaigns []campaignStats  `json:"campaigns,omitempty"`
	Traced    map[string]int64 `json:"traced,omitempty"`
}

type expectedDoc struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	exactStats
}

func loadExpected(workload string) (expectedDoc, error) {
	b, err := expectedFS.ReadFile("expected/" + workload + ".json")
	if err != nil {
		return expectedDoc{}, err
	}
	return parseExpected(b)
}

func parseExpected(b []byte) (expectedDoc, error) {
	var doc expectedDoc
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return expectedDoc{}, fmt.Errorf("parsing expected statistics: %w", err)
	}
	return doc, nil
}

// writeExpected merges one pass's statistics into dir/<workload>.json
// (-update-expected runs both passes, each filling its own section).
func writeExpected(dir, workload string, got exactStats) error {
	path := filepath.Join(dir, workload+".json")
	doc := expectedDoc{Workload: workload, Seed: expectedSeed}
	if b, err := os.ReadFile(path); err == nil {
		if old, err := parseExpected(b); err == nil && old.Workload == workload {
			doc.exactStats = old.exactStats
		}
	}
	if got.Campaigns != nil {
		doc.Campaigns = got.Campaigns
	}
	if got.Traced != nil {
		doc.Traced = got.Traced
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareExact lists every difference between the committed statistics
// and a pass's. A run may measure more or fewer campaigns than were
// committed (the count follows the host's speed): the common prefix must
// match record for record.
func compareExact(want, got exactStats) []string {
	var diffs []string
	if got.Campaigns != nil {
		if len(want.Campaigns) == 0 {
			diffs = append(diffs, "no committed campaign statistics to compare against")
		}
		n := min(len(want.Campaigns), len(got.Campaigns))
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(want.Campaigns[i], got.Campaigns[i]) {
				diffs = append(diffs, fmt.Sprintf("campaign %d: expected %+v, got %+v", i, want.Campaigns[i], got.Campaigns[i]))
			}
		}
	}
	if got.Traced != nil {
		keys := map[string]bool{}
		for k := range want.Traced {
			keys[k] = true
		}
		for k := range got.Traced {
			keys[k] = true
		}
		names := make([]string, 0, len(keys))
		for k := range keys {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			w, wok := want.Traced[k]
			g, gok := got.Traced[k]
			if !wok || !gok || w != g {
				diffs = append(diffs, fmt.Sprintf("traced %s: expected %d (present %v), got %d (present %v)", k, w, wok, g, gok))
			}
		}
	}
	return diffs
}

// checkExact applies the correctness gate to a finished pass: the exact
// comparison at the committed seed (full-size runs only; -smoke shrinks
// the work, so its statistics differ by design).
func checkExact(r *result, o options) {
	if o.seed != expectedSeed || o.smoke {
		return
	}
	want, err := loadExpected(r.Workload)
	if err != nil {
		r.problemf("loading expected statistics: %v", err)
		return
	}
	for _, d := range compareExact(want.exactStats, r.Exact) {
		r.problemf("%s", d)
	}
}

// checkGet verifies one GET reply against the deterministic value oracle:
// the reply must be a VALUE line whose version is one some client has
// written (at most the key's shared version ceiling) and whose bytes are
// exactly trace.ValueFor(key, version). A MISS is wrong too: every key is
// pre-populated.
func checkGet(key uint64, ceiling int64, valueSize int, reply []byte) error {
	reply = bytes.TrimRight(reply, "\r\n")
	fields := bytes.Fields(reply)
	if len(fields) != 3 || string(fields[0]) != "VALUE" {
		return fmt.Errorf("get %d: reply %q is not a VALUE line", key, clip(reply))
	}
	ver, err := strconv.ParseUint(string(fields[1]), 10, 32)
	if err != nil {
		return fmt.Errorf("get %d: bad version %q", key, fields[1])
	}
	if int64(ver) > ceiling {
		return fmt.Errorf("get %d: version %d was never written (ceiling %d)", key, ver, ceiling)
	}
	got := make([]byte, hex.DecodedLen(len(fields[2])))
	if _, err := hex.Decode(got, fields[2]); err != nil {
		return fmt.Errorf("get %d: bad hex value: %v", key, err)
	}
	if !bytes.Equal(got, trace.ValueFor(key, uint32(ver), valueSize)) {
		return fmt.Errorf("get %d: wrong value for version %d", key, ver)
	}
	return nil
}

func clip(b []byte) []byte {
	if len(b) > 60 {
		return b[:60]
	}
	return b
}
