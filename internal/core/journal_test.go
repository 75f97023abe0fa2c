package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hrmsim/internal/obsv"
	"hrmsim/internal/simmem"
)

func testJournalMeta() JournalMeta {
	return JournalMeta{
		App:    "websearch",
		Error:  "single-bit soft",
		Trials: 10,
		Seed:   42,
		Size:   256,
	}
}

// testJournalTrials is a representative set of results: a crash with a
// stack, an incorrect response with effect times, a masked trial, and an
// aborted one.
func testJournalTrials() []TrialResult {
	return []TrialResult{
		{
			Index: 0, Outcome: OutcomeCrash, Region: "heap", Kind: simmem.RegionHeap,
			InjectedAt: 3 * time.Minute, EffectAt: 5 * time.Minute,
			Requests: 17, EndedAt: 5 * time.Minute,
			CrashReason: "memory fault",
			CrashStack:  "hrmsim/internal/apps/websearch.(*App).Serve\n\tsearch.go:210",
		},
		{
			Index: 1, Outcome: OutcomeIncorrect, Region: "index", Kind: simmem.RegionPrivate,
			InjectedAt: time.Minute, EffectAt: 2 * time.Minute,
			Incorrect: 3, IncorrectAt: []time.Duration{2 * time.Minute, 4 * time.Minute, 9 * time.Minute},
			Requests: 40, EndedAt: 10 * time.Minute,
		},
		{
			Index: 2, Outcome: OutcomeMaskedLatent, Region: "stack", Kind: simmem.RegionStack,
			InjectedAt: 30 * time.Second, Requests: 40, EndedAt: 10 * time.Minute,
		},
		{
			Index: 3, Disposition: DispositionAborted,
			AbortReason: "deadline", AbortDetail: "trial exceeded the 1s wall-clock deadline",
		},
	}
}

// TestJournalRoundTrip: writing results and reading them back is
// bit-identical, including crash stacks, incorrect-response times, and
// aborted dispositions.
func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j, err := NewJournal(&buf, testJournalMeta())
	if err != nil {
		t.Fatal(err)
	}
	trials := testJournalTrials()
	for _, tr := range trials {
		if err := j.Append(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	meta, recs, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := meta.Matches(testJournalMeta()); err != nil {
		t.Errorf("read-back meta does not match: %v", err)
	}
	if meta.SchemaVersion != JournalSchemaVersion || meta.Stream != JournalStream {
		t.Errorf("header stamped %d/%q, want %d/%q",
			meta.SchemaVersion, meta.Stream, JournalSchemaVersion, JournalStream)
	}
	if len(recs) != len(trials) {
		t.Fatalf("read %d records, wrote %d", len(recs), len(trials))
	}
	for _, want := range trials {
		got, ok := recs[want.Index]
		if !ok {
			t.Errorf("trial %d missing", want.Index)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trial %d round-trip diverged:\ngot:  %+v\nwant: %+v", want.Index, got, want)
		}
	}
}

// TestJournalTruncationTolerance: for EVERY prefix of a valid journal,
// the reader either fails cleanly (header incomplete) or returns a
// subset of the original records with unchanged values — a torn tail
// never corrupts or invents a trial.
func TestJournalTruncationTolerance(t *testing.T) {
	var buf bytes.Buffer
	j, err := NewJournal(&buf, testJournalMeta())
	if err != nil {
		t.Fatal(err)
	}
	trials := testJournalTrials()
	want := make(map[int]TrialResult, len(trials))
	for _, tr := range trials {
		want[tr.Index] = tr
		if err := j.Append(tr); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.Bytes()
	headerLen := bytes.IndexByte(full, '\n') + 1

	for cut := 0; cut <= len(full); cut++ {
		meta, recs, err := ReadJournal(bytes.NewReader(full[:cut]))
		if err != nil {
			// Only a cut inside the header line may fail (identity
			// cannot be established without it).
			if cut >= headerLen {
				t.Errorf("cut %d: unexpected error %v", cut, err)
			}
			continue
		}
		// A successful read — possible from headerLen on (a header
		// without its newline is a torn one) — must return the true
		// identity and a faithful subset of the records.
		if err := meta.Matches(testJournalMeta()); err != nil {
			t.Errorf("cut %d: meta diverged: %v", cut, err)
		}
		for idx, got := range recs {
			orig, ok := want[idx]
			if !ok {
				t.Errorf("cut %d: invented trial %d", cut, idx)
				continue
			}
			if !reflect.DeepEqual(got, orig) {
				t.Errorf("cut %d: trial %d corrupted by truncation", cut, idx)
			}
		}
	}
}

// TestJournalCorruptLinesSkipped: garbage lines, records for other
// campaigns' indices, and unknown outcome names are skipped without
// aborting the read.
func TestJournalCorruptLinesSkipped(t *testing.T) {
	var buf bytes.Buffer
	j, err := NewJournal(&buf, testJournalMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testJournalTrials()[2]); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("{\"trial\": not json\n")                          // torn line
	buf.WriteString("\n")                                              // blank
	buf.WriteString(`{"trial":99,"disposition":"completed"}` + "\n")   // out of range
	buf.WriteString(`{"trial":-1,"disposition":"aborted"}` + "\n")     // negative
	buf.WriteString(`{"trial":5,"disposition":"completed"}` + "\n")    // missing result
	buf.WriteString(`{"trial":6,"disposition":"vanished"}` + "\n")     // unknown disposition
	buf.WriteString(`{"trial":7,"disposition":"completed","result":` + // unknown outcome
		`{"outcome":"exploded","region":"heap","region_kind":"heap","requests":1,"ended_at_ns":1}}` + "\n")

	_, recs, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("read %d records, want only the 1 valid one: %v", len(recs), recs)
	}
	if _, ok := recs[2]; !ok {
		t.Error("the valid record (trial 2) was dropped")
	}
}

// TestJournalDuplicateKeepsFirst: duplicate records for one trial keep
// the first occurrence, so a resume-after-kill (which may have re-run
// and re-journaled a trial) never double-counts or rewrites history.
func TestJournalDuplicateKeepsFirst(t *testing.T) {
	var buf bytes.Buffer
	j, err := NewJournal(&buf, testJournalMeta())
	if err != nil {
		t.Fatal(err)
	}
	first := TrialResult{Index: 4, Outcome: OutcomeMaskedOverwrite, Region: "heap",
		Kind: simmem.RegionHeap, Requests: 10, EndedAt: time.Minute}
	second := first
	second.Outcome = OutcomeCrash
	second.CrashReason = "duplicate"
	for _, tr := range []TrialResult{first, second} {
		if err := j.Append(tr); err != nil {
			t.Fatal(err)
		}
	}
	_, recs, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("read %d records, want 1", len(recs))
	}
	if !reflect.DeepEqual(recs[4], first) {
		t.Errorf("duplicate resolution kept the later record: %+v", recs[4])
	}
}

// TestOpenJournalResumesAfterKill: a journal file whose writer was
// killed mid-record (torn trailing line) reopens cleanly, repairs the
// tail, and appends records that read back alongside the survivors.
func TestOpenJournalResumesAfterKill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	j, existed, err := OpenJournal(path, testJournalMeta())
	if err != nil {
		t.Fatal(err)
	}
	if existed {
		t.Fatal("fresh journal reported prior records")
	}
	trials := testJournalTrials()
	for _, tr := range trials[:2] {
		if err := j.Append(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-write: truncate the file partway through the
	// last record.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j, existed, err = OpenJournal(path, testJournalMeta())
	if err != nil {
		t.Fatal(err)
	}
	if !existed {
		t.Fatal("reopened journal reported no prior records")
	}
	for _, tr := range trials[2:] {
		if err := j.Append(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, recs, err := ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	// Trial 0 survived, trial 1 was torn (lost), trials 2 and 3 were
	// appended after the reopen.
	for _, idx := range []int{0, 2, 3} {
		got, ok := recs[idx]
		if !ok {
			t.Errorf("trial %d missing after reopen", idx)
			continue
		}
		if !reflect.DeepEqual(got, trials[idx]) {
			t.Errorf("trial %d diverged after reopen", idx)
		}
	}
	if _, ok := recs[1]; ok {
		t.Error("the torn trial-1 record should have been dropped")
	}
}

// TestOpenJournalRestartsTornHeader: a file holding only part of a
// header line — its writer killed before the header landed — opens as a
// fresh journal, for every cut of the header.
func TestOpenJournalRestartsTornHeader(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewJournal(&buf, testJournalMeta()); err != nil {
		t.Fatal(err)
	}
	header := buf.Bytes()
	for cut := 1; cut < len(header); cut++ {
		path := filepath.Join(t.TempDir(), "trials.jsonl")
		if err := os.WriteFile(path, header[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, existed, err := OpenJournal(path, testJournalMeta())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if existed {
			t.Errorf("cut %d: a torn header reported prior records", cut)
		}
		if err := j.Append(testJournalTrials()[2]); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		got := readJournalFile(t, path)
		if len(got) != 1 || !reflect.DeepEqual(got[2], testJournalTrials()[2]) {
			t.Errorf("cut %d: restarted journal reads back %v", cut, got)
		}
	}
}

// TestOpenJournalRejectsDifferentCampaign: a journal from a different
// campaign identity cannot be appended to.
func TestOpenJournalRejectsDifferentCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	j, _, err := OpenJournal(path, testJournalMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	other := testJournalMeta()
	other.Seed = 43
	if _, _, err := OpenJournal(path, other); err == nil {
		t.Fatal("OpenJournal accepted a journal with a different seed")
	} else if !strings.Contains(err.Error(), "different campaign") {
		t.Errorf("error %v does not identify the campaign mismatch", err)
	}
}

// TestReadJournalRejectsBadHeaders: foreign streams and future schema
// versions are refused outright — resume identity must be established.
func TestReadJournalRejectsBadHeaders(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"not json":       "hello\n",
		"foreign stream": `{"stream":"other-stream","schema_version":1,"trials":10}` + "\n",
		"future schema":  `{"stream":"hrmsim-trial-journal","schema_version":99,"trials":10}` + "\n",
	}
	for name, in := range cases {
		if _, _, err := ReadJournal(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJournal succeeded, want error", name)
		}
	}
}

// FuzzJournalReader: no input may panic the reader, and every record it
// does return must be in range with a valid disposition — completed or
// aborted, so a trailer ("final") never becomes a trial. Appending a
// trailer, as a journal writer does after terminating a torn last line,
// never changes the trial map, and the reader then sees the trailer as
// the last complete line unless the input holds a line too long to
// scan.
func FuzzJournalReader(f *testing.F) {
	var buf bytes.Buffer
	j, err := NewJournal(&buf, testJournalMeta())
	if err != nil {
		f.Fatal(err)
	}
	for _, tr := range testJournalTrials() {
		if err := j.Append(tr); err != nil {
			f.Fatal(err)
		}
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-9])
	f.Add([]byte(`{"stream":"hrmsim-trial-journal","schema_version":1,"trials":3}` + "\n" +
		`{"trial":1,"disposition":"aborted","abort_reason":"deadline"}` + "\n"))
	f.Add([]byte("{}\n{}\n"))
	trailer := func(final JournalFinal) []byte {
		var tb bytes.Buffer
		tj := &Journal{w: &tb, bw: bufio.NewWriter(&tb)}
		if err := tj.Finish(final); err != nil {
			f.Fatal(err)
		}
		return tb.Bytes()
	}
	// A metrics snapshot too large for one journal line.
	reg := obsv.NewRegistry()
	reg.Counter(strings.Repeat("x", journalMaxLine)).Inc()
	big := reg.Snapshot()
	valid := trailer(JournalFinal{ElapsedSeconds: 1.5, TrialsPerSec: 2, Resumed: 1, Interrupted: true})
	f.Add(append(append([]byte(nil), full...), valid...))
	f.Add(append(append([]byte(nil), full...), valid[:len(valid)/2]...))
	f.Add(append(append([]byte(nil), full...), trailer(JournalFinal{Metrics: &big})...))
	f.Add(append(append(append([]byte(nil), full...), valid...), full[bytes.IndexByte(full, '\n')+1:]...))
	f.Add([]byte(`{"stream":"hrmsim-trial-journal","schema_version":1,"trials":3}` + "\n" +
		`{"trial":1,"disposition":"final","final":{}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, recs, _, err := readJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		appended := append([]byte(nil), data...)
		if len(appended) > 0 && appended[len(appended)-1] != '\n' {
			appended = append(appended, '\n')
		}
		appended = append(appended, valid...)
		_, again, final, err := readJournal(bytes.NewReader(appended))
		if err != nil {
			t.Fatalf("appending a trailer made the journal unreadable: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("appending a trailer changed the trial map:\nbefore: %v\nafter:  %v", recs, again)
		}
		if final == nil && len(appended) <= journalMaxLine {
			t.Fatal("a trailer appended as the last complete line was not read as one")
		}
		for idx, tr := range recs {
			if idx < 0 || idx >= meta.Trials {
				t.Fatalf("record index %d outside [0,%d)", idx, meta.Trials)
			}
			if tr.Index != idx {
				t.Fatalf("record keyed %d has Index %d", idx, tr.Index)
			}
			switch tr.Disposition {
			case DispositionCompleted, DispositionAborted:
			default:
				t.Fatalf("record %d has disposition %v", idx, tr.Disposition)
			}
		}
	})
}

// TestJournalRecordShape pins the on-disk field names — the journal is a
// versioned contract, so renames must bump JournalSchemaVersion.
func TestJournalRecordShape(t *testing.T) {
	var buf bytes.Buffer
	j, err := NewJournal(&buf, testJournalMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testJournalTrials()[0]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header + record", len(lines))
	}
	var header map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema_version", "stream", "app", "error", "trials", "seed"} {
		if _, ok := header[key]; !ok {
			t.Errorf("header lacks %q: %s", key, lines[0])
		}
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"trial", "disposition", "result"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("record lacks %q: %s", key, lines[1])
		}
	}
	res, ok := rec["result"].(map[string]any)
	if !ok {
		t.Fatalf("record result is %T", rec["result"])
	}
	for _, key := range []string{"outcome", "region", "region_kind", "injected_at_ns", "requests", "ended_at_ns", "crash_reason", "crash_stack"} {
		if _, ok := res[key]; !ok {
			t.Errorf("result lacks %q: %s", key, lines[1])
		}
	}
}
