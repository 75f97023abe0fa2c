package hrmsim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hrmsim/internal/core"
)

// TestKillAtEveryRecordBoundary: a shard worker killed at any point of
// its journal leaves a state that one -resume run and a merge turn into
// the single-process result, bit for bit. Shard 1 of a 2-shard campaign
// is cut back to its header plus k records, for every k, once at the
// record boundary and once with the next record torn in half; a killed
// worker writes no trailer. Before the resume, merge counts that shard's
// range missing; after it, the merge equals the baseline and the worker
// reports k resumed trials. A journal killed inside its header holds
// nothing to resume: the retry starts it afresh and runs the whole
// range.
func TestKillAtEveryRecordBoundary(t *testing.T) {
	base := CharacterizeConfig{App: AppKVStore, Size: SizeSmall, Trials: 16, Seed: 6}
	want, err := Characterize(base)
	if err != nil {
		t.Fatal(err)
	}
	shardCfg := func(dir string, i int) CharacterizeConfig {
		cfg := base
		cfg.ShardIndex, cfg.ShardCount = i, 2
		cfg.JournalPath = filepath.Join(dir, core.ShardJournalName(i, 2))
		return cfg
	}
	full := t.TempDir()
	for i := 0; i < 2; i++ {
		cfg := shardCfg(full, i)
		cfg.Parallelism = 1
		if _, err := Characterize(cfg); err != nil {
			t.Fatal(err)
		}
	}
	read := func(cfg CharacterizeConfig) []byte {
		t.Helper()
		journal, err := os.ReadFile(cfg.JournalPath)
		if err != nil {
			t.Fatal(err)
		}
		return journal
	}
	journal0, journal1 := read(shardCfg(full, 0)), read(shardCfg(full, 1))
	// The last split is the empty tail, the one before it the trailer.
	lines := bytes.SplitAfter(journal1, []byte("\n"))
	header, records := lines[0], lines[1:len(lines)-2]
	lo, hi := (core.ShardSpec{Index: 1, Count: 2}).Range(base.Trials)
	if len(records) != hi-lo {
		t.Fatalf("shard 1 journal holds %d records, want %d", len(records), hi-lo)
	}

	// resume lays out a campaign directory whose shard 1 died with the
	// given journal bytes on disk, checks that merge counts its range
	// missing, runs the retry, and checks it resumed k trials and that
	// the merge equals the single-process run.
	resume := func(t *testing.T, journal []byte, k int) {
		t.Helper()
		dir := t.TempDir()
		c0, c1 := shardCfg(dir, 0), shardCfg(dir, 1)
		for path, b := range map[string][]byte{c0.JournalPath: journal0, c1.JournalPath: journal} {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		partial, info, err := MergeShards(MergeConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if !partial.Interrupted || info.Missing != hi-lo || len(info.Shards) != 1 {
			t.Fatalf("merge beside the killed shard: interrupted %v, %d missing, %d shards; want shard 1's %d trials missing",
				partial.Interrupted, info.Missing, len(info.Shards), hi-lo)
		}

		c1.ResumePath = c1.JournalPath
		c, err := Characterize(c1)
		if err != nil {
			t.Fatal(err)
		}
		if c.Resumed != k {
			t.Errorf("resumed %d trials, want the %d whole records", c.Resumed, k)
		}
		got, info, err := MergeShards(MergeConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if info.Records != base.Trials || info.Missing != 0 || info.Duplicates != 0 {
			t.Fatalf("merge info = %+v", info)
		}
		gotCmp := *got
		gotCmp.Parallelism = want.Parallelism
		if !reflect.DeepEqual(*want, gotCmp) {
			t.Errorf("merged result diverged from the single-process run:\nsingle: %+v\nmerged: %+v", *want, gotCmp)
		}
	}

	for k := 0; k <= len(records); k++ {
		for _, torn := range []bool{false, true} {
			if torn && k == len(records) {
				continue // no record left to tear
			}
			t.Run(fmt.Sprintf("records=%d/torn=%v", k, torn), func(t *testing.T) {
				journal := append([]byte(nil), header...)
				for _, r := range records[:k] {
					journal = append(journal, r...)
				}
				if torn {
					journal = append(journal, records[k][:len(records[k])/2]...)
				}
				resume(t, journal, k)
			})
		}
	}

	t.Run("torn-header", func(t *testing.T) {
		resume(t, header[:len(header)/2], 0)
	})
}
