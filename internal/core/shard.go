// Sharded campaigns: the contract that lets one characterization
// campaign run as N independent processes and merge back into a result
// bit-identical to a single-process run.
//
// The contract has three parts (documented for operators in SHARDING.md):
//
//  1. Partitioning. A campaign of T trials splits into N contiguous
//     index ranges; shard i owns [i*T/N, (i+1)*T/N). Because trial j's
//     generator depends only on (Seed, j), a shard needs no coordination
//     with its siblings — it just runs its indices.
//  2. One file per shard: the ordinary trial journal (journal.go),
//     restricted to the shard's range. Its header carries the campaign
//     identity and the shard coordinates; its trailer says the shard
//     finished. A status view re-derives the rest from the records.
//  3. Merging. MergeShards checks that every journal of the directory
//     hashes to the same campaign config and unions the finished ones'
//     records keep-first in shard order — the resume reader's dedup
//     rule, extended across journals.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hrmsim/internal/faults"
	"hrmsim/internal/stats"
)

// ShardSpec selects one slice of a sharded campaign: shard Index of
// Count, owning the contiguous trial range Range(trials).
type ShardSpec struct {
	Index int
	Count int
}

// Validate reports whether the spec is a well-formed shard coordinate.
func (s ShardSpec) Validate() error {
	if s.Count <= 0 {
		return fmt.Errorf("core: shard count must be positive, got %d", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("core: shard index %d outside [0,%d)", s.Index, s.Count)
	}
	return nil
}

// Range returns the half-open trial index range [lo, hi) owned by the
// shard. Ranges of the Count shards tile [0, trials) exactly, in index
// order, differing in size by at most one trial. A shard whose range is
// empty (more shards than trials) is valid and runs nothing.
func (s ShardSpec) Range(trials int) (lo, hi int) {
	return s.Index * trials / s.Count, (s.Index + 1) * trials / s.Count
}

// String renders the spec in the CLI's "i/N" form.
func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// ParseShardSpec parses the CLI's "i/N" shard syntax. The text must be
// exactly the spec's String form: no padding, sign, leading zero or
// trailing text.
func ParseShardSpec(text string) (ShardSpec, error) {
	var s ShardSpec
	if _, err := fmt.Sscanf(text, "%d/%d", &s.Index, &s.Count); err != nil || s.String() != text {
		return ShardSpec{}, fmt.Errorf("core: shard spec %q is not of the form i/N", text)
	}
	if err := s.Validate(); err != nil {
		return ShardSpec{}, err
	}
	return s, nil
}

// ConfigHash returns the canonical hash of a campaign identity: sha256
// over the JSON encoding of the meta with the stream and schema version
// stamped to their current values and the shard coordinates left out.
// Two campaigns hash equal exactly when JournalMeta.Matches finds no
// difference but the shard.
func ConfigHash(meta JournalMeta) string {
	meta.SchemaVersion = JournalSchemaVersion
	meta.Stream = JournalStream
	meta.ShardIndex, meta.ShardCount = 0, 0
	b, err := json.Marshal(meta)
	if err != nil {
		// JournalMeta is a flat struct of strings and ints; Marshal
		// cannot fail on it.
		panic(fmt.Sprintf("core: encoding journal meta: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ShardJournalName returns the canonical journal file name of shard i of
// n: shard-0003-of-0008.jsonl. The fixed-width form keeps directory
// listings (and merge order) aligned with shard order.
func ShardJournalName(index, count int) string {
	return fmt.Sprintf("shard-%04d-of-%04d.jsonl", index, count)
}

// ShardJournal is one shard as its journal records it. Name is the
// file name within its directory, Written its modification time (the
// last line flushed), and Final the trailer when it is the journal's
// last complete line: nil while a run is writing it, or was killed.
type ShardJournal struct {
	Name    string
	Meta    JournalMeta
	Trials  map[int]TrialResult
	Final   *JournalFinal
	Written time.Time
}

// Progress re-derives the shard's progress record: the range from the
// header, dispositions and outcomes from the records, resume count,
// timing and interrupt from the trailer. An adaptive plan is replayed
// from the records under the header's stopping rule, the way a resumed
// run re-derives its verdicts. EtaSeconds stays zero: a journal holds
// no rate for a running shard.
func (s *ShardJournal) Progress() ShardProgress {
	lo, hi := s.Meta.Shard().Range(s.Meta.Trials)
	p := ShardProgress{TrialLo: lo, TrialHi: hi, Total: hi - lo,
		Outcomes: make(map[string]int), Running: s.Final == nil}
	for i, tr := range s.Trials {
		if i < lo || i >= hi {
			continue
		}
		p.Done++
		if tr.Disposition == DispositionCompleted {
			p.Completed++
			p.Outcomes[tr.Outcome.String()]++
		} else {
			p.Aborted++
		}
	}
	if f := s.Final; f != nil {
		p.Resumed, p.Interrupted = f.Resumed, f.Interrupted
		p.ElapsedSeconds, p.TrialsPerSec = f.ElapsedSeconds, f.TrialsPerSec
	}
	if m := s.Meta; m.TargetCI > 0 {
		rule := stats.SequentialStopping{TargetHalfWidth: m.TargetCI, Level: m.CILevel,
			MinTrials: m.MinTrials, MaxTrials: m.MaxTrials}
		p.Adaptive = true
		p.Total, p.CIHalfWidth, p.PlanFinal = replayPlan(rule, m.Trials, s.Trials)
		p.PlannedTrials = p.Total
		if saved := m.Trials - p.Total; p.PlanFinal && saved > 0 {
			p.TrialsSaved = saved
		}
	}
	return p
}

// LoadShardDir reads every *.jsonl journal in dir, sorted by shard
// index, then file name (MergeShards' keep-first order). Every journal
// must have the first one's config hash, so `hrmsim status` and `hrmsim
// merge` refuse the same mixed-campaign directories, naming the first
// differing field. A journal with an incomplete header line (its worker
// died, or is caught, before the header landed) is skipped like a shard
// that has not started.
func LoadShardDir(dir string) ([]ShardJournal, error) {
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, fmt.Errorf("core: reading shard directory: %w", err)
	}
	var out []ShardJournal
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || info.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue // a file removed since the listing is skipped too
		}
		sh := ShardJournal{Name: e.Name(), Written: info.ModTime()}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err == nil {
			sh.Meta, sh.Trials, sh.Final, err = readJournal(f)
			f.Close()
		}
		if err == nil {
			err = sh.Meta.Shard().Validate()
		}
		if errors.Is(err, errTornHeader) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("core: shard journal %s: %w", filepath.Join(dir, e.Name()), err)
		}
		if len(out) > 0 && ConfigHash(sh.Meta) != ConfigHash(out[0].Meta) {
			return nil, fmt.Errorf("core: %s belongs to a different campaign than %s: %w",
				sh.Name, out[0].Name, out[0].Meta.Matches(sh.Meta))
		}
		out = append(out, sh)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Meta.Shard().Index < out[j].Meta.Shard().Index })
	return out, nil
}

// MergeShards merges the finished shards of a campaign directory: each
// journal LoadShardDir reads whose last complete line is a trailer.
// Records merge keep-first in LoadShardDir's order, so a trial recorded
// by more than one shard keeps the earliest shard's record — the
// cross-journal extension of the resume reader's rule. It returns the
// consumed journals in merge order, the merged trials keyed by index,
// and the count of duplicate records dropped.
//
// A live or killed shard (no trailer) contributes nothing: its range is
// missing, exactly as if it had never run. That is not an error —
// merging the shards of an interrupted campaign yields a partial
// (resumable) result, like the journal of an interrupted
// single-process run.
func MergeShards(dir string) (finished []ShardJournal, merged map[int]TrialResult, duplicates int, err error) {
	shards, err := LoadShardDir(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	merged = make(map[int]TrialResult)
	for _, sh := range shards {
		if sh.Final == nil {
			continue
		}
		for i, tr := range sh.Trials {
			if _, dup := merged[i]; dup {
				duplicates++
				continue
			}
			merged[i] = tr
		}
		finished = append(finished, sh)
	}
	if len(finished) == 0 {
		return nil, nil, 0, fmt.Errorf("core: no finished shard journals (*.jsonl ending in a trailer) in %s", dir)
	}
	return finished, merged, duplicates, nil
}

// ResultFromTrials reconstructs a CampaignResult from journaled trial
// records. It folds them through the supervisor's own result assembly
// (CampaignResult.fold), so aggregates computed over a merged N-shard
// campaign go through exactly the same code as a single-process run's.
// Interrupted is set when the records do not cover every requested trial.
func ResultFromTrials(app string, spec faults.Spec, requested int, trials map[int]TrialResult) *CampaignResult {
	res := &CampaignResult{
		App:       app,
		Spec:      spec,
		Requested: requested,
		// Shard journals only exist for fixed plans (adaptive campaigns
		// are unsharded), so the merged plan is the fixed one.
		Planned:   requested,
		PlanFinal: true,
	}
	res.fold(requested, func(i int) (TrialResult, bool) {
		tr, ok := trials[i]
		return tr, ok
	})
	res.Interrupted = len(res.Trials) < requested
	return res
}
