package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hrmsim/internal/faults"
	"hrmsim/internal/obsv"
	"hrmsim/internal/simmem"
)

// TestShardRangeTiling: the N shard ranges tile [0, trials) exactly, in
// index order, for a spread of trial counts and shard counts — including
// more shards than trials (some ranges empty).
func TestShardRangeTiling(t *testing.T) {
	for _, trials := range []int{0, 1, 2, 3, 7, 10, 100, 101} {
		for _, count := range []int{1, 2, 3, 4, 7, 16} {
			next := 0
			for i := 0; i < count; i++ {
				lo, hi := (ShardSpec{Index: i, Count: count}).Range(trials)
				if lo != next {
					t.Fatalf("trials=%d count=%d: shard %d starts at %d, want %d", trials, count, i, lo, next)
				}
				if hi < lo {
					t.Fatalf("trials=%d count=%d: shard %d has negative range [%d,%d)", trials, count, i, lo, hi)
				}
				next = hi
			}
			if next != trials {
				t.Fatalf("trials=%d count=%d: shards cover [0,%d), want [0,%d)", trials, count, next, trials)
			}
		}
	}
}

func TestParseShardSpec(t *testing.T) {
	s, err := ParseShardSpec("3/8")
	if err != nil {
		t.Fatal(err)
	}
	if s.Index != 3 || s.Count != 8 {
		t.Fatalf("ParseShardSpec(3/8) = %+v", s)
	}
	if s.String() != "3/8" {
		t.Fatalf("String() = %q, want 3/8", s.String())
	}
	for _, bad := range []string{"", "3", "3/", "/8", "8/8", "-1/4", "0/0", "x/y", "0/2x", "1/2/3", " 0/2", "01/2"} {
		if _, err := ParseShardSpec(bad); err == nil {
			t.Errorf("ParseShardSpec(%q): want error", bad)
		}
	}
}

// TestConfigHash: equal campaign identities hash equal regardless of the
// stamped stream/version fields; any identity field difference changes
// the hash.
func TestConfigHash(t *testing.T) {
	base := testJournalMeta()
	stamped := base
	stamped.SchemaVersion = JournalSchemaVersion
	stamped.Stream = JournalStream
	if ConfigHash(base) != ConfigHash(stamped) {
		t.Error("hash depends on unset stream/version fields")
	}
	vary := []JournalMeta{base, base, base, base, base}
	vary[0].App = "kvstore"
	vary[1].Trials = base.Trials + 1
	vary[2].Seed = base.Seed + 1
	vary[3].Region = "stack"
	vary[4].Size = base.Size + 1
	for i, m := range vary {
		if ConfigHash(m) == ConfigHash(base) {
			t.Errorf("variant %d hashes equal to base", i)
		}
	}
}

// writeShard writes one shard's journal into dir, ending in a trailer
// unless running is set (a worker still writing, or killed).
func writeShard(t *testing.T, dir string, meta JournalMeta, spec ShardSpec, trials []TrialResult, running ...bool) {
	t.Helper()
	meta.ShardIndex, meta.ShardCount = spec.Index, spec.Count
	j, _, err := OpenJournal(filepath.Join(dir, ShardJournalName(spec.Index, spec.Count)), meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if err := j.Append(tr); err != nil {
			t.Fatal(err)
		}
	}
	if len(running) == 0 || !running[0] {
		if err := j.Finish(JournalFinal{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeShardsRejectsTamperedRecord: a journal whose header was
// edited after writing to name a shard outside its count is refused by
// name, by merge and status alike.
func TestMergeShardsRejectsTamperedRecord(t *testing.T) {
	dir := t.TempDir()
	writeShard(t, dir, testJournalMeta(), ShardSpec{Index: 1, Count: 2}, shardTrials(5))
	path := filepath.Join(dir, ShardJournalName(1, 2))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(b), `"shard_index":1`, `"shard_index":4`, 1)
	if edited == string(b) {
		t.Fatal("test setup: shard_index not found in the journal header")
	}
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = MergeShards(dir)
	if err == nil || !strings.Contains(err.Error(), ShardJournalName(1, 2)) ||
		!strings.Contains(err.Error(), "shard index 4") {
		t.Fatalf("tampered header: got %v, want an error naming the journal and its shard index", err)
	}
}

// shardTrials fabricates deterministic completed results for the given
// indices. The results must round-trip the journal, so they carry a
// valid region kind.
func shardTrials(idxs ...int) []TrialResult {
	var out []TrialResult
	for _, i := range idxs {
		out = append(out, TrialResult{
			Index: i, Outcome: OutcomeMaskedOverwrite,
			Region: "heap", Kind: simmem.RegionHeap, Requests: 10 + i,
		})
	}
	return out
}

// TestMergeShardsKeepFirst: a trial index recorded by two shards keeps
// the earlier (lower-index) shard's record; the duplicate is counted.
func TestMergeShardsKeepFirst(t *testing.T) {
	dir := t.TempDir()
	meta := testJournalMeta() // 10 trials
	writeShard(t, dir, meta, ShardSpec{Index: 0, Count: 2}, []TrialResult{
		{Index: 0, Outcome: OutcomeMaskedOverwrite, Region: "heap", Kind: simmem.RegionHeap, Requests: 100},
		{Index: 4, Outcome: OutcomeCrash, Region: "heap", Kind: simmem.RegionHeap, Requests: 1},
	})
	writeShard(t, dir, meta, ShardSpec{Index: 1, Count: 2}, []TrialResult{
		// Duplicate of shard 0's record for index 4, then a fresh one.
		{Index: 4, Outcome: OutcomeMaskedLogic, Region: "heap", Kind: simmem.RegionHeap, Requests: 999},
		{Index: 5, Outcome: OutcomeIncorrect, Region: "heap", Kind: simmem.RegionHeap, Requests: 7},
	})
	shards, trials, dups, err := MergeShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ConfigHash(shards[0].Meta) != ConfigHash(meta) {
		t.Fatalf("merged shard header %+v is not the campaign's", shards[0].Meta)
	}
	if len(shards) != 2 || len(trials) != 3 || dups != 1 {
		t.Fatalf("merged %d shards into %d records, %d duplicates", len(shards), len(trials), dups)
	}
	if trials[4].Outcome != OutcomeCrash || trials[4].Requests != 1 {
		t.Fatalf("keep-first violated: trial 4 = %+v", trials[4])
	}
}

// TestMergeShardsEmptyShard: a shard with a valid journal header and no
// records (more shards than work, or cancelled before its first trial)
// merges cleanly.
func TestMergeShardsEmptyShard(t *testing.T) {
	dir := t.TempDir()
	meta := testJournalMeta()
	writeShard(t, dir, meta, ShardSpec{Index: 0, Count: 2}, shardTrials(0, 1, 2, 3, 4))
	writeShard(t, dir, meta, ShardSpec{Index: 1, Count: 2}, nil)
	shards, trials, _, err := MergeShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 || len(trials) != 5 {
		t.Fatalf("merged %d shards into %d records", len(shards), len(trials))
	}
}

// TestMergeShardsAbortedOnly: a shard whose every trial aborted still
// contributes its records; the rebuilt result counts no outcomes for it.
func TestMergeShardsAbortedOnly(t *testing.T) {
	dir := t.TempDir()
	meta := testJournalMeta()
	writeShard(t, dir, meta, ShardSpec{Index: 0, Count: 2}, shardTrials(0, 1, 2, 3, 4))
	writeShard(t, dir, meta, ShardSpec{Index: 1, Count: 2}, []TrialResult{
		{Index: 5, Disposition: DispositionAborted, AbortReason: "deadline"},
		{Index: 6, Disposition: DispositionAborted, AbortReason: "op_budget"},
	})
	_, trials, _, err := MergeShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 7 {
		t.Fatalf("records = %d, want 7", len(trials))
	}
	res := ResultFromTrials(meta.App, faults.SingleBitSoft, meta.Trials, trials)
	if res.Completed() != 5 || res.AbortedCount() != 2 || !res.Interrupted {
		t.Fatalf("completed=%d aborted=%d interrupted=%v", res.Completed(), res.AbortedCount(), res.Interrupted)
	}
}

// TestMergeShardsConfigMismatch: shards from different campaigns are
// rejected while the directory is loaded, before any journal is read,
// naming the differing field.
func TestMergeShardsConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	meta := testJournalMeta()
	other := meta
	other.Seed = meta.Seed + 1
	writeShard(t, dir, meta, ShardSpec{Index: 0, Count: 2}, shardTrials(0))
	writeShard(t, dir, other, ShardSpec{Index: 1, Count: 2}, shardTrials(5))
	_, _, _, err := MergeShards(dir)
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("got %v, want different-campaign error", err)
	}
	if !strings.Contains(err.Error(), "seed") {
		t.Errorf("error does not name the differing field: %v", err)
	}
}

// TestMergeShardsNoFinishedShards: a directory without a finished shard
// — no journal at all, or only ones without a trailer — is an explicit
// error, not an empty merge.
func TestMergeShardsNoFinishedShards(t *testing.T) {
	if _, _, _, err := MergeShards(t.TempDir()); err == nil {
		t.Fatal("want error for empty shard directory")
	}
	dir := t.TempDir()
	writeShard(t, dir, testJournalMeta(), ShardSpec{Index: 0, Count: 1}, shardTrials(0, 1), true)
	if _, _, _, err := MergeShards(dir); err == nil || !strings.Contains(err.Error(), "no finished shard") {
		t.Fatalf("only a live shard: got %v, want no-finished-shard error", err)
	}
}

// TestCampaignShardUnionEqualsWhole: running a campaign as N in-process
// shards and unioning the trial results reproduces the unsharded run
// bit-identically — the engine-level half of the merge-equivalence
// guarantee.
func TestCampaignShardUnionEqualsWhole(t *testing.T) {
	base := CampaignConfig{
		Builder: kvBuilder(t, 3),
		Spec:    faults.SingleBitSoft,
		Trials:  30,
		Seed:    11,
	}
	whole, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{1, 2, 3, 4} {
		union := make(map[int]TrialResult)
		for i := 0; i < count; i++ {
			cfg := base
			cfg.Builder = kvBuilder(t, 3)
			cfg.Shard = &ShardSpec{Index: i, Count: count}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := cfg.Shard.Range(base.Trials)
			if len(res.Trials) != hi-lo {
				t.Fatalf("count=%d shard=%d: %d trials, want %d", count, i, len(res.Trials), hi-lo)
			}
			for _, tr := range res.Trials {
				if tr.Index < lo || tr.Index >= hi {
					t.Fatalf("count=%d shard=%d: trial %d outside [%d,%d)", count, i, tr.Index, lo, hi)
				}
				union[tr.Index] = tr
			}
		}
		if len(union) != base.Trials {
			t.Fatalf("count=%d: union has %d trials, want %d", count, len(union), base.Trials)
		}
		for _, tr := range whole.Trials {
			if !reflect.DeepEqual(union[tr.Index], tr) {
				t.Fatalf("count=%d: trial %d differs:\n shard: %+v\n whole: %+v",
					count, tr.Index, union[tr.Index], tr)
			}
		}
	}
}

// TestCampaignShardResumeFiltersForeignRecords: resume records outside
// the shard's range (a sibling's journal fed back in) are ignored.
func TestCampaignShardResumeFiltersForeignRecords(t *testing.T) {
	cfg := CampaignConfig{
		Builder: kvBuilder(t, 3),
		Spec:    faults.SingleBitSoft,
		Trials:  20,
		Seed:    5,
		Shard:   &ShardSpec{Index: 1, Count: 2}, // owns [10,20)
		Resume: map[int]TrialResult{
			2:  {Outcome: OutcomeCrash},           // foreign: shard 0's index
			12: {Outcome: OutcomeMaskedOverwrite}, // owned: must be skipped, not re-run
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 1 {
		t.Fatalf("resumed = %d, want 1 (foreign record filtered)", res.Resumed)
	}
	for _, tr := range res.Trials {
		if tr.Index == 2 {
			t.Fatal("foreign resume record leaked into the shard result")
		}
		if tr.Index == 12 && tr.Outcome != OutcomeMaskedOverwrite {
			t.Fatal("owned resume record was re-run instead of skipped")
		}
	}
}

// TestCampaignShardInvalid: an invalid shard spec fails loudly at
// campaign start.
func TestCampaignShardInvalid(t *testing.T) {
	_, err := Run(CampaignConfig{
		Builder: kvBuilder(t, 3),
		Spec:    faults.SingleBitSoft,
		Trials:  10,
		Seed:    1,
		Shard:   &ShardSpec{Index: 4, Count: 4},
	})
	if err == nil {
		t.Fatal("want error for out-of-range shard index")
	}
}

// TestLoadShardDir: a directory's journals load sorted by shard index;
// other files — status records of earlier builds among them — and a
// journal whose header line is still incomplete are skipped.
func TestLoadShardDir(t *testing.T) {
	dir := t.TempDir()
	got, err := LoadShardDir(dir)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty dir: %v, %v", got, err)
	}
	for _, idx := range []int{2, 0, 1} {
		writeShard(t, dir, testJournalMeta(), ShardSpec{Index: idx, Count: 4}, shardTrials(idx))
	}
	for name, body := range map[string]string{
		"notes.txt":                      "x",
		"shard-0000-of-0004.status.json": `{"stream":"hrmsim-shard-status","schema_version":1}`,
		ShardJournalName(3, 4):           `{"schema_version":1,"stream":"hrmsim-tri`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err = LoadShardDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("loaded %d journals, want 3", len(got))
	}
	for i, sh := range got {
		if sh.Meta.Shard() != (ShardSpec{Index: i, Count: 4}) || sh.Name != ShardJournalName(i, 4) {
			t.Errorf("journal %d is %s, shard %s (want sorted)", i, sh.Name, sh.Meta.Shard())
		}
		if sh.Final == nil || len(sh.Trials) != 1 || sh.Written.IsZero() {
			t.Errorf("journal %d: final %v, %d trials, written %v", i, sh.Final, len(sh.Trials), sh.Written)
		}
	}
}

// TestLoadShardDirRejectsMalformed: a journal with a foreign stream, an
// unknown schema version or impossible shard coordinates fails the
// load, naming the file.
func TestLoadShardDirRejectsMalformed(t *testing.T) {
	for _, c := range []struct{ header, wantErr string }{
		{`{"stream":"other","schema_version":1,"trials":10}`, "not a trial journal"},
		{`{"stream":"hrmsim-trial-journal","schema_version":99,"trials":10}`, "schema version"},
		{`{"stream":"hrmsim-trial-journal","schema_version":1,"trials":10,"shard_index":4,"shard_count":2}`, "shard index"},
		{`{"stream":"hrmsim-trial-journal","schema_version":1,"trials":10,"shard_count":-2}`, "shard count"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "x.jsonl"), []byte(c.header+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadShardDir(dir); err == nil || !strings.Contains(err.Error(), c.wantErr) ||
			!strings.Contains(err.Error(), "x.jsonl") {
			t.Errorf("%s: err = %v, want one naming x.jsonl and containing %q", c.header, err, c.wantErr)
		}
	}
}

// TestJournalTrailerRoundTrip: the trailer reads back as written, and
// it is neither a trial nor a change to the trial map.
func TestJournalTrailerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ShardJournalName(1, 2))
	meta := testJournalMeta()
	meta.ShardIndex, meta.ShardCount = 1, 2
	j, _, err := OpenJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range testJournalTrials() {
		if err := j.Append(tr); err != nil {
			t.Fatal(err)
		}
	}
	reg := obsv.NewRegistry()
	reg.Counter("campaign_trials_total").Add(5)
	snap := reg.Snapshot()
	want := JournalFinal{ElapsedSeconds: 2, TrialsPerSec: 2.5, Resumed: 1, Interrupted: true, Metrics: &snap}
	if err := j.Finish(want); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"trial":-1,"disposition":"final","final":{`) {
		t.Errorf("trailer line = %s", last)
	}
	shards, err := LoadShardDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[0]
	if sh.Final == nil || !reflect.DeepEqual(*sh.Final, want) {
		t.Errorf("trailer round trip: got %+v, want %+v", sh.Final, want)
	}
	_, without, err := ReadJournal(strings.NewReader(strings.Join(lines[:len(lines)-1], "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sh.Trials, without) {
		t.Errorf("the trailer changed the trial map:\nwith:    %v\nwithout: %v", sh.Trials, without)
	}
}

// TestShardProgressFromJournal: a shard's state is read off its journal.
// A journal without a trailer is a running (or killed) shard, one whose
// last complete line is a trailer a finished one — a torn line after
// the trailer does not count — and records after a trailer make the
// shard running again. Done, dispositions and outcomes come from the
// records in the shard's range.
func TestShardProgressFromJournal(t *testing.T) {
	meta := testJournalMeta()
	meta.ShardIndex, meta.ShardCount = 0, 2 // owns [0,5)
	var buf bytes.Buffer
	j, err := NewJournal(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range testJournalTrials() {
		if err := j.Append(tr); err != nil {
			t.Fatal(err)
		}
	}
	records := buf.String()
	if err := j.Finish(JournalFinal{Resumed: 2, ElapsedSeconds: 3, TrialsPerSec: 0.5}); err != nil {
		t.Fatal(err)
	}
	finished := buf.String()
	extra := `{"trial":4,"disposition":"aborted","abort_reason":"worker_error"}` + "\n"
	for _, c := range []struct {
		name    string
		journal string
		running bool
		done    int
	}{
		{"killed", records, true, 4},
		{"finished", finished, false, 4},
		{"finished-torn-tail", finished + extra[:20], false, 4},
		{"records-after-trailer", finished + extra, true, 5},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "s.jsonl"), []byte(c.journal), 0o644); err != nil {
			t.Fatal(err)
		}
		shards, err := LoadShardDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		p := shards[0].Progress()
		if p.Running != c.running || p.Done != c.done || p.TrialLo != 0 || p.TrialHi != 5 || p.Total != 5 {
			t.Errorf("%s: %+v, want running %v, %d/5 done over [0,5)", c.name, p, c.running, c.done)
		}
		if p.Completed != 3 || p.Aborted != c.done-3 || p.Outcomes["crash"] != 1 || p.Adaptive {
			t.Errorf("%s: dispositions %+v", c.name, p)
		}
		if finishedRun := !c.running; finishedRun != (p.Resumed == 2 && p.TrialsPerSec == 0.5 && p.ElapsedSeconds == 3) {
			t.Errorf("%s: trailer fields %+v", c.name, p)
		}
	}
}
