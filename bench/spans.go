package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (nothing inside the program is instrumented).
// IDs start at 1; Parent 0 marks a root. Unit is the trial index of a
// campaign span or the connection index of a client span.
type span struct {
	ID, Parent int
	Name       string
	Start, End int64 // nanoseconds since the recorder started
	Unit       int
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced twin of a traced pass runs
// the same code path for bench.trace_overhead_ratio.
type recorder struct {
	t0      time.Time
	unitKey string // "trial" or "conn": the JSON key Unit is written under
	spans   []span
}

func newRecorder(unitKey string) *recorder {
	return &recorder{t0: time.Now(), unitKey: unitKey}
}

// begin opens a span and returns its id (0 from a nil recorder).
func (r *recorder) begin(name string, parent, unit int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(r.t0)), Unit: unit,
	})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.t0))
}

// writeJSONL writes one span per line:
// {"id":1,"parent":0,"name":"core.trial","start_ns":..,"end_ns":..,"trial":0}
func (r *recorder) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, s := range r.spans {
		line = line[:0]
		line = append(line, `{"id":`...)
		line = strconv.AppendInt(line, int64(s.ID), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.Parent), 10)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, s.Name)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.Start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.End, 10)
		line = append(line, ',', '"')
		line = append(line, r.unitKey...)
		line = append(line, '"', ':')
		line = strconv.AppendInt(line, int64(s.Unit), 10)
		line = append(line, '}', '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeFile writes the spans to dir/<workload>.spans.jsonl.
func (r *recorder) writeFile(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := r.writeJSONL(f); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}

// selfTime is one row of the self-time table: every span of one name.
type selfTime struct {
	Name    string
	Count   int
	TotalNs int64 // sum of span durations
	SelfNs  int64 // TotalNs minus the time the spans' children cover
}

// layer is the Go package a span name belongs to: the text before the
// first dot.
func (s selfTime) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// selfTimes folds spans into per-name rows. A span's self time is its
// duration minus its children's; children of one parent never overlap
// (every traced pass is single-goroutine), so a plain sum is exact.
func selfTimes(spans []span) []selfTime {
	child := make([]int64, len(spans)+1)
	for _, s := range spans {
		child[s.Parent] += s.End - s.Start
	}
	byName := map[string]*selfTime{}
	for _, s := range spans {
		row := byName[s.Name]
		if row == nil {
			row = &selfTime{Name: s.Name}
			byName[s.Name] = row
		}
		d := s.End - s.Start
		row.Count++
		row.TotalNs += d
		row.SelfNs += d - child[s.ID]
	}
	rows := make([]selfTime, 0, len(byName))
	for _, row := range byName {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].layer() != rows[j].layer() {
			return rows[i].layer() < rows[j].layer()
		}
		return rows[i].SelfNs > rows[j].SelfNs
	})
	return rows
}

// printSelfTimes renders the per-layer self-time table.
func printSelfTimes(w io.Writer, rows []selfTime) {
	var all int64
	for _, r := range rows {
		all += r.SelfNs
	}
	fmt.Fprintf(w, "  %-8s %-22s %9s %12s %12s %7s\n", "layer", "span", "count", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.SelfNs) / float64(all)
		}
		fmt.Fprintf(w, "  %-8s %-22s %9d %12.3f %12.3f %6.1f%%\n",
			r.layer(), r.Name, r.Count, float64(r.TotalNs)/1e6, float64(r.SelfNs)/1e6, share)
	}
}
