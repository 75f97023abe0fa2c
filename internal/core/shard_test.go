package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hrmsim/internal/faults"
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

// writeShard writes one shard into dir: its journal and its status
// record naming it, final (Running=false) unless running is set.
func writeShard(t *testing.T, dir string, meta JournalMeta, spec ShardSpec, trials []TrialResult, running ...bool) {
	t.Helper()
	jname := ShardJournalName(spec.Index, spec.Count)
	j, _, err := OpenJournal(filepath.Join(dir, jname), meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if err := j.Append(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lo, hi := spec.Range(meta.Trials)
	st := ShardStatus{
		ConfigHash: ConfigHash(meta),
		Campaign:   meta,
		Journal:    jname,
		ShardIndex: spec.Index,
		ShardCount: spec.Count,
		ShardProgress: ShardProgress{TrialLo: lo, TrialHi: hi, Done: len(trials), Total: hi - lo,
			Running: len(running) > 0 && running[0]},
	}
	if err := WriteStatus(filepath.Join(dir, ShardStatusName(spec.Index, spec.Count)), st); err != nil {
		t.Fatal(err)
	}
}

// TestMergeShardsRejectsTamperedRecord: a final record whose campaign
// identity was edited after writing no longer matches its recorded
// config hash, and the merge refuses it by name.
func TestMergeShardsRejectsTamperedRecord(t *testing.T) {
	dir := t.TempDir()
	meta := testJournalMeta()
	writeShard(t, dir, meta, ShardSpec{Index: 0, Count: 1}, shardTrials(0))
	path := filepath.Join(dir, ShardStatusName(0, 1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(b), `"seed": 42`, `"seed": 43`, 1)
	if edited == string(b) {
		t.Fatal("test setup: seed field not found in the status record")
	}
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = MergeShards(dir)
	if err == nil || !strings.Contains(err.Error(), "config hash") ||
		!strings.Contains(err.Error(), "does not match its own campaign identity") ||
		!strings.Contains(err.Error(), "shard 0/1") {
		t.Fatalf("tampered record: got %v, want a config-hash error naming shard 0/1", err)
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
	shards, trials, stats, err := MergeShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := shards[0].Campaign.Matches(meta); err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 2 || stats.Records != 3 || stats.Duplicates != 1 || stats.Missing != 7 {
		t.Fatalf("stats = %+v", stats)
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
	_, trials, stats, err := MergeShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 5 || stats.Missing != 5 || len(trials) != 5 {
		t.Fatalf("stats = %+v, len(trials) = %d", stats, len(trials))
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
	_, trials, stats, err := MergeShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 7 {
		t.Fatalf("records = %d, want 7", stats.Records)
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

// TestMergeShardsJournalRecordMismatch: a journal swapped in from a
// different campaign is caught even when its status record is
// internally consistent.
func TestMergeShardsJournalRecordMismatch(t *testing.T) {
	dir := t.TempDir()
	meta := testJournalMeta()
	writeShard(t, dir, meta, ShardSpec{Index: 0, Count: 1}, shardTrials(0))
	// Overwrite the journal with one from a different campaign.
	other := meta
	other.Seed = meta.Seed + 7
	jpath := filepath.Join(dir, ShardJournalName(0, 1))
	if err := os.Remove(jpath); err != nil {
		t.Fatal(err)
	}
	j, _, err := OpenJournal(jpath, other)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, _, _, err = MergeShards(dir)
	if err == nil || !strings.Contains(err.Error(), "does not match its status record") {
		t.Fatalf("got %v, want journal/record mismatch error", err)
	}
}

// TestMergeShardsNoFinishedShards: a directory without a finished shard
// — no status record at all, or only live ones — is an explicit error,
// not an empty merge.
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
