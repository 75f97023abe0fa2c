package core

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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

// TestProgressRecordSequence pins the Progress hook's contract: an
// initial record before the first trial, one record per finished trial,
// and a final record (Running false) that nothing follows — for a fixed
// plan, an adaptive plan, a run with only resumed trials and a cancelled
// run.
func TestProgressRecordSequence(t *testing.T) {
	// record runs cfg, keeping every record; cancelAt, if positive,
	// cancels the run once that many trials are done.
	record := func(t *testing.T, cfg CampaignConfig, cancelAt int) (*CampaignResult, []ShardProgress) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var got []ShardProgress
		cfg.Progress = func(p ShardProgress) {
			got = append(got, p)
			if cancelAt > 0 && p.Done == cancelAt {
				cancel()
			}
		}
		res, err := RunContext(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < 2 {
			t.Fatalf("got %d records, want at least an initial and a final one", len(got))
		}
		for i, p := range got {
			if p.Running != (i < len(got)-1) {
				t.Fatalf("record %d of %d has Running %v: only the last one is final", i, len(got), p.Running)
			}
			if p.TrialsPerSec < 0 || p.EtaSeconds < 0 || p.ElapsedSeconds < 0 {
				t.Errorf("record %d has negative rate fields: %+v", i, p)
			}
			// Outcomes is a fresh map per record: a kept record still
			// sums to its own Completed.
			sum := 0
			for _, n := range p.Outcomes {
				sum += n
			}
			if p.Outcomes == nil || sum != p.Completed {
				t.Errorf("record %d outcomes %v sum to %d, want Completed %d", i, p.Outcomes, sum, p.Completed)
			}
		}
		final := got[len(got)-1]
		if final.EtaSeconds != 0 {
			t.Errorf("final EtaSeconds = %g, want 0", final.EtaSeconds)
		}
		if final.Completed != res.Completed() || final.Aborted != res.AbortedCount() || final.Done != len(res.Trials) {
			t.Errorf("final record %+v, want done %d completed %d aborted %d",
				final, len(res.Trials), res.Completed(), res.AbortedCount())
		}
		for _, o := range Outcomes() {
			if final.Outcomes[o.String()] != res.Count(o) {
				t.Errorf("final outcome %s = %d, want %d", o, final.Outcomes[o.String()], res.Count(o))
			}
		}
		return res, got
	}
	base := CampaignConfig{Builder: kvBuilder(t, 13), Spec: faults.SingleBitSoft, Trials: 24, Seed: 5, Parallelism: 4}

	t.Run("fixed", func(t *testing.T) {
		res, got := record(t, base, 0)
		if len(got) != 24+2 {
			t.Fatalf("got %d records, want initial + 24 + final", len(got))
		}
		for i, p := range got {
			want := min(i, 24)
			if p.Done != want || p.Total != 24 || p.TrialLo != 0 || p.TrialHi != 24 {
				t.Errorf("record %d: done %d/%d range [%d,%d), want %d/24 over [0,24)",
					i, p.Done, p.Total, p.TrialLo, p.TrialHi, want)
			}
			if p.Adaptive || p.Interrupted {
				t.Errorf("record %d of a fixed, uncancelled run: %+v", i, p)
			}
		}
		if res.Interrupted {
			t.Error("the run was interrupted")
		}
	})
	t.Run("adaptive", func(t *testing.T) {
		cfg := base
		cfg.Trials = 120
		cfg.Planner = NewAdaptivePlanner(testRule(0.15, 10, 120))
		res, got := record(t, cfg, 0)
		if !res.PlanFinal || res.Planned >= cfg.Trials {
			t.Fatalf("plan final %v at %d of %d: the rule must stop early for this case", res.PlanFinal, res.Planned, cfg.Trials)
		}
		final := got[len(got)-1]
		if !final.Adaptive || !final.PlanFinal || final.PlannedTrials != res.Planned || final.Total != res.Planned ||
			final.TrialsSaved != cfg.Trials-res.Planned {
			t.Errorf("final record %+v, want the final plan of %d trials", final, res.Planned)
		}
		for i, p := range got[:len(got)-1] {
			if !p.Adaptive || p.PlanFinal || p.PlannedTrials != p.Total || p.Done > p.Total {
				t.Errorf("record %d of the open plan: %+v", i, p)
			}
		}
	})
	t.Run("resumed-only", func(t *testing.T) {
		full, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Resume = make(map[int]TrialResult, len(full.Trials))
		for _, tr := range full.Trials {
			cfg.Resume[tr.Index] = tr
		}
		_, got := record(t, cfg, 0)
		if len(got) != 2 {
			t.Fatalf("got %d records, want the initial and the final one", len(got))
		}
		for i, p := range got {
			if p.Done != 24 || p.Resumed != 24 || p.TrialsPerSec != 0 {
				t.Errorf("record %d = %+v, want 24 done, all resumed, no rate", i, p)
			}
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		res, got := record(t, base, 6)
		if !res.Interrupted || !got[len(got)-1].Interrupted {
			t.Errorf("result interrupted %v, final record %+v: want both interrupted", res.Interrupted, got[len(got)-1])
		}
		for i, p := range got[:len(got)-1] {
			if p.Interrupted {
				t.Errorf("running record %d says interrupted", i)
			}
		}
	})
}

func TestSupervisorStatusShardedAndResumed(t *testing.T) {
	spec := ShardSpec{Index: 1, Count: 2}
	resume := map[int]TrialResult{
		// Trial 10 falls inside shard 1's range [10, 20) of 20 trials.
		10: {Disposition: DispositionCompleted, Outcome: OutcomeMaskedLatent},
		// Trial 0 belongs to shard 0 and must be ignored.
		0: {Disposition: DispositionCompleted, Outcome: OutcomeCrash},
	}
	var got []ShardProgress
	res, err := Run(CampaignConfig{
		Builder:    kvBuilder(t, 5),
		Spec:       faults.SingleBitSoft,
		Trials:     20,
		Seed:       11,
		Shard:      &spec,
		Resume:     resume,
		RunOptions: RunOptions{Progress: func(p ShardProgress) { got = append(got, p) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	first, last := got[0], got[len(got)-1]
	if first.TrialLo != 10 || first.TrialHi != 20 || first.Total != 10 {
		t.Errorf("initial record = %+v, want shard 1/2's range [10,20)", first)
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
