package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hrmsim/internal/faults"
	"hrmsim/internal/obsv"
)

func TestShardStatusNames(t *testing.T) {
	if got, want := ShardStatusName(3, 8), "shard-0003-of-0008.status.json"; got != want {
		t.Errorf("ShardStatusName = %q, want %q", got, want)
	}
	if got, want := StatusPathFor("/x/shard-0003-of-0008.jsonl"), "/x/shard-0003-of-0008.status.json"; got != want {
		t.Errorf("StatusPathFor = %q, want %q", got, want)
	}
	if got, want := StatusPathFor("plain"), "plain.status.json"; got != want {
		t.Errorf("StatusPathFor without .jsonl = %q, want %q", got, want)
	}
}

func TestWriteReadStatusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ShardStatusName(1, 2))
	reg := obsv.NewRegistry()
	reg.Counter("campaign_trials_total").Add(5)
	snap := reg.Snapshot()
	st := ShardStatus{
		ConfigHash: "abc",
		Campaign:   JournalMeta{App: "kvstore", Error: "soft-1bit", Trials: 10, Seed: 3},
		Journal:    ShardJournalName(1, 2),
		ShardIndex: 1,
		ShardCount: 2,
		ShardProgress: ShardProgress{
			TrialLo:        5,
			TrialHi:        10,
			Done:           5,
			Total:          5,
			Completed:      4,
			Aborted:        1,
			Outcomes:       map[string]int{"crash": 1, "masked-by-overwrite": 3},
			TrialsPerSec:   2.5,
			ElapsedSeconds: 2,
		},
		WallUnixNanos: 12345,
		Metrics:       &snap,
	}
	if err := WriteStatus(path, st); err != nil {
		t.Fatal(err)
	}
	// Atomic write leaves no temp debris behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file survived the rename: %v", err)
	}
	got, err := ReadStatus(path)
	if err != nil {
		t.Fatal(err)
	}
	st.SchemaVersion = StatusSchemaVersion
	st.Stream = StatusStream
	if !reflect.DeepEqual(got, st) {
		t.Errorf("round-trip:\ngot  %+v\nwant %+v", got, st)
	}
}

func TestReadStatusRejectsForeignAndMalformed(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name, body, wantErr string
	}{
		{"wrong-stream.status.json", `{"stream":"other","schema_version":1,"shard_index":0,"shard_count":1}`, "not a shard status"},
		{"wrong-version.status.json", `{"stream":"hrmsim-shard-status","schema_version":99,"shard_index":0,"shard_count":1}`, "schema version"},
		{"bad-coords.status.json", `{"stream":"hrmsim-shard-status","schema_version":1,"shard_index":4,"shard_count":2}`, "shard index"},
		{"torn.status.json", `{"stream":"hrmsim-shard-sta`, "parsing"},
	}
	for _, c := range cases {
		if _, err := ReadStatus(write(c.name, c.body)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

// FuzzReadStatus: no input may panic the shard-record reader — the one
// reader of a finished shard, for `hrmsim status` and `hrmsim merge`
// alike — and a record it accepts, written back with WriteStatus, reads
// back as the same record. Records compare by their encoding: JSON does
// not tell an empty metrics map from an absent one (omitempty).
func FuzzReadStatus(f *testing.F) {
	fleet, err := filepath.Glob(filepath.Join("..", "..", "cmd", "hrmsim", "testdata", "fleet", "*.json"))
	if err != nil || len(fleet) == 0 {
		f.Fatalf("no seed records under cmd/hrmsim/testdata/fleet: %v", err)
	}
	for _, p := range fleet {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	meta := testJournalMeta()
	finished, err := json.Marshal(ShardStatus{
		SchemaVersion: StatusSchemaVersion, Stream: StatusStream,
		ConfigHash: ConfigHash(meta), Campaign: meta, Journal: ShardJournalName(0, 2),
		ShardCount: 2,
		ShardProgress: ShardProgress{TrialHi: 5, Done: 5, Total: 5, Completed: 5,
			Outcomes: map[string]int{"masked-latent": 5}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(finished)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.status.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := ReadStatus(in)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.status.json")
		if err := WriteStatus(out, st); err != nil {
			t.Fatalf("accepted record does not write back: %v", err)
		}
		back, err := ReadStatus(out)
		if err != nil {
			t.Fatalf("written-back record is refused: %v", err)
		}
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("record changed across WriteStatus:\nread:  %s\nagain: %s", want, got)
		}
	})
}

func TestLoadStatusDir(t *testing.T) {
	dir := t.TempDir()
	// Empty directory: no error, no records (pre-first-heartbeat state).
	got, err := LoadStatusDir(dir)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty dir: %v, %v", got, err)
	}
	for _, idx := range []int{2, 0, 1} {
		st := ShardStatus{ShardIndex: idx, ShardCount: 3, ShardProgress: ShardProgress{Done: idx}}
		if err := WriteStatus(filepath.Join(dir, ShardStatusName(idx, 3)), st); err != nil {
			t.Fatal(err)
		}
	}
	// Unrelated files are skipped.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LoadStatusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("loaded %d records, want 3", len(got))
	}
	for i, st := range got {
		if st.ShardIndex != i {
			t.Errorf("record %d has shard index %d (want sorted)", i, st.ShardIndex)
		}
	}
}

func TestSupervisorEmitsStatus(t *testing.T) {
	reg := obsv.NewRegistry()
	var got []ShardStatus
	res, err := Run(CampaignConfig{
		Builder:     kvBuilder(t, 5),
		Spec:        faults.SingleBitSoft,
		Trials:      20,
		Seed:        11,
		Parallelism: 2,
		StatusSink:  func(st ShardStatus) { got = append(got, st) },
		// A huge interval: only the initial and final records are
		// guaranteed, which is exactly what this test pins.
		RunOptions: RunOptions{Metrics: reg, StatusInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 {
		t.Fatalf("got %d status records, want >= 2 (initial + final)", len(got))
	}
	first, last := got[0], got[len(got)-1]
	if !first.Running || first.Done != 0 || first.Total != 20 {
		t.Errorf("initial record = %+v, want running with 0/20 done", first)
	}
	if first.ShardCount != 1 || first.TrialLo != 0 || first.TrialHi != 20 {
		t.Errorf("initial record coords = %+v, want unsharded full range", first)
	}
	// No trial has completed yet; the record still carries "outcomes": {}.
	if first.Outcomes == nil {
		t.Error("initial record has nil Outcomes, want an empty map")
	}
	if last.Running {
		t.Error("final record still has Running=true")
	}
	if last.Done != 20 || last.Completed != res.Completed() || last.Aborted != res.AbortedCount() {
		t.Errorf("final record = %+v, want done=20 completed=%d aborted=%d",
			last, res.Completed(), res.AbortedCount())
	}
	// Outcome taxonomy counts must agree with the campaign result.
	for _, o := range Outcomes() {
		if last.Outcomes[o.String()] != res.Count(o) {
			t.Errorf("final outcome %s = %d, want %d", o, last.Outcomes[o.String()], res.Count(o))
		}
	}
	// Done is monotone across heartbeats.
	for i := 1; i < len(got); i++ {
		if got[i].Done < got[i-1].Done {
			t.Errorf("Done regressed: %d then %d", got[i-1].Done, got[i].Done)
		}
	}
	// The heartbeat carries the live registry snapshot.
	if last.Metrics == nil {
		t.Fatal("final record has no metrics snapshot")
	}
	if n := last.Metrics.Counters["campaign_trials_total"]; n != int64(res.Completed()) {
		t.Errorf("snapshot campaign_trials_total = %d, want %d", n, res.Completed())
	}
}

func TestSupervisorStatusShardedAndResumed(t *testing.T) {
	spec := ShardSpec{Index: 1, Count: 2}
	resume := map[int]TrialResult{
		// Trial 10 falls inside shard 1's range [10, 20) of 20 trials.
		10: {Disposition: DispositionCompleted, Outcome: OutcomeMaskedLatent},
		// Trial 0 belongs to shard 0 and must be ignored.
		0: {Disposition: DispositionCompleted, Outcome: OutcomeCrash},
	}
	var got []ShardStatus
	res, err := Run(CampaignConfig{
		Builder:    kvBuilder(t, 5),
		Spec:       faults.SingleBitSoft,
		Trials:     20,
		Seed:       11,
		Shard:      &spec,
		Resume:     resume,
		StatusSink: func(st ShardStatus) { got = append(got, st) },
		RunOptions: RunOptions{StatusInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	first, last := got[0], got[len(got)-1]
	if first.ShardIndex != 1 || first.ShardCount != 2 || first.TrialLo != 10 || first.TrialHi != 20 {
		t.Errorf("initial coords = %+v, want shard 1/2 range [10,20)", first)
	}
	if first.Done != 1 || first.Resumed != 1 || first.Outcomes["masked-latent"] != 1 {
		t.Errorf("initial record = %+v, want one resumed masked-latent trial", first)
	}
	if last.Done != 10 || last.Total != 10 || last.Completed != res.Completed() {
		t.Errorf("final record = %+v, want 10/10 done, completed=%d", last, res.Completed())
	}
	if last.Outcomes["crash"] != res.Count(OutcomeCrash) {
		t.Errorf("final crash count = %d, want %d", last.Outcomes["crash"], res.Count(OutcomeCrash))
	}
}
