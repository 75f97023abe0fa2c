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
//  2. The shard record pair. Each shard emits the ordinary trial
//     journal (journal.go) restricted to its range, plus its status
//     record (status.go), whose final heartbeat (Running=false) names
//     the journal and carries the campaign identity, its config hash,
//     the shard coordinates, the trial range and a metrics snapshot. The
//     journal carries the science; the final record says the shard
//     finished and carries the compatibility evidence.
//  3. Merging. MergeShards validates that every record of the directory
//     hashes to the same campaign config, reads each finished shard's
//     journal (whose own header must match the record), and unions the
//     records keep-first in shard order — the same dedup rule the resume
//     reader applies within one journal, extended across journals.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"hrmsim/internal/faults"
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
// stamped to their current values. Two campaigns hash equal exactly when
// JournalMeta.Matches finds no difference.
func ConfigHash(meta JournalMeta) string {
	meta.SchemaVersion = JournalSchemaVersion
	meta.Stream = JournalStream
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

// MergeStats summarizes one merge for operators and metrics.
type MergeStats struct {
	// Shards is the number of shard journals merged.
	Shards int
	// Records is the number of distinct trials in the merged result.
	Records int
	// Duplicates counts records dropped by keep-first dedup — the same
	// trial index recorded by more than one shard (e.g. overlapping
	// re-runs dropped into one directory).
	Duplicates int
	// Missing counts trial indices of the campaign with no record in any
	// finished shard (live or crashed shards, and interrupted ones that
	// were never resumed).
	Missing int
}

// MergeShards merges the finished shards of a campaign directory. It
// loads every status record (LoadStatusDir, which refuses a directory
// whose records belong to more than one campaign) and consumes
// each final record (Running=false) that names a journal: the record's
// config hash must be the hash of its own campaign identity, and the
// journal's header must match that identity. Records are merged
// keep-first in LoadStatusDir's order (shard index, then file name), so
// a trial index recorded by more than one shard keeps the earliest
// shard's record — the cross-journal extension of the resume reader's
// within-journal rule. It returns the consumed records in merge order
// and the merged trials keyed by index.
//
// A live or crashed shard (its last record still Running) contributes
// nothing: its range counts as Missing, exactly as if it had never run.
// Missing trials are not an error — merging the shards of an interrupted
// campaign yields a partial (resumable) result, like reading the journal
// of an interrupted single-process run.
func MergeShards(dir string) ([]ShardStatus, map[int]TrialResult, MergeStats, error) {
	records, err := LoadStatusDir(dir)
	if err != nil {
		return nil, nil, MergeStats{}, err
	}
	var finished []ShardStatus
	merged := make(map[int]TrialResult)
	var stats MergeStats
	for _, st := range records {
		if st.Running || st.Journal == "" {
			continue
		}
		if got := ConfigHash(st.Campaign); got != st.ConfigHash {
			return nil, nil, MergeStats{}, fmt.Errorf(
				"core: shard %d/%d record in %s: config hash %s does not match its own campaign identity (%s)",
				st.ShardIndex, st.ShardCount, dir, st.ConfigHash, got)
		}
		path := filepath.Join(dir, st.Journal)
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, MergeStats{}, fmt.Errorf("core: opening shard journal: %w", err)
		}
		meta, recs, err := ReadJournal(f)
		f.Close()
		if err != nil {
			return nil, nil, MergeStats{}, fmt.Errorf("core: shard journal %s: %w", path, err)
		}
		if err := meta.Matches(st.Campaign); err != nil {
			return nil, nil, MergeStats{}, fmt.Errorf(
				"core: shard journal %s does not match its status record: %w", path, err)
		}
		// Deterministic keep-first: apply each journal's records in
		// ascending trial order.
		idxs := make([]int, 0, len(recs))
		for i := range recs {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			if _, dup := merged[i]; dup {
				stats.Duplicates++
				continue
			}
			merged[i] = recs[i]
		}
		finished = append(finished, st)
	}
	if len(finished) == 0 {
		return nil, nil, MergeStats{}, fmt.Errorf(
			"core: no finished shard records (*.status.json with running false and a journal) in %s", dir)
	}
	stats.Shards = len(finished)
	stats.Records = len(merged)
	stats.Missing = finished[0].Campaign.Trials - stats.Records
	return finished, merged, stats, nil
}

// ResultFromTrials reconstructs a CampaignResult from journaled trial
// records — the merge-side twin of the supervisor's result assembly, so
// aggregates computed over a merged N-shard campaign go through exactly
// the same code as a single-process run's. Interrupted is set when the
// records do not cover every requested trial.
func ResultFromTrials(app string, spec faults.Spec, requested int, trials map[int]TrialResult) *CampaignResult {
	res := &CampaignResult{
		App:       app,
		Spec:      spec,
		Requested: requested,
		// Shard journals only exist for fixed plans (adaptive campaigns
		// are unsharded), so the merged plan is the fixed one.
		Planned:   requested,
		PlanFinal: true,
		counts:    make(map[Outcome]int),
	}
	idxs := make([]int, 0, len(trials))
	for i := range trials {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		tr := trials[i]
		tr.Index = i
		res.Trials = append(res.Trials, tr)
		if tr.Disposition == DispositionCompleted {
			res.counts[tr.Outcome]++
		}
	}
	res.Interrupted = len(res.Trials) < requested
	return res
}
