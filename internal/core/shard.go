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
//  2. The shard artifact pair. Each shard emits the ordinary trial
//     journal (journal.go) restricted to its range, plus a manifest: a
//     small JSON document naming the campaign identity (and its
//     config hash), the shard coordinates, the trial range, and a
//     metrics snapshot. The journal carries the science; the manifest
//     carries the compatibility evidence.
//  3. Merging. MergeShards validates that every manifest hashes to the
//     same campaign config, reads each journal (whose own header must
//     match the manifest), and unions the records keep-first in shard
//     order — the same dedup rule the resume reader applies within one
//     journal, extended across journals.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

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

// ParseShardSpec parses the CLI's "i/N" shard syntax.
func ParseShardSpec(text string) (ShardSpec, error) {
	var s ShardSpec
	if _, err := fmt.Sscanf(text, "%d/%d", &s.Index, &s.Count); err != nil {
		return ShardSpec{}, fmt.Errorf("core: shard spec %q is not of the form i/N", text)
	}
	if err := s.Validate(); err != nil {
		return ShardSpec{}, err
	}
	return s, nil
}

// ManifestSchemaVersion identifies the shard manifest schema, versioned
// independently of the journal and the -json envelope. The usual rule:
// renaming or reinterpreting a field bumps it, additions do not.
const ManifestSchemaVersion = 1

// ManifestStream is the stream identifier in every shard manifest.
const ManifestStream = "hrmsim-shard-manifest"

// ShardManifest is the shard's compatibility record, written next to its
// trial journal when the shard finishes (including when it finishes
// interrupted). Merging validates manifests before it reads a single
// journal record, so an operator mixing shards from two campaigns gets a
// config-hash error, not silently blended statistics.
type ShardManifest struct {
	SchemaVersion int    `json:"schema_version"`
	Stream        string `json:"stream"`
	// ConfigHash is ConfigHash(Campaign): one hex string equality check
	// for "these shards describe the same deterministic trial sequence".
	ConfigHash string `json:"config_hash"`
	// Campaign is the full campaign identity, the same header the shard's
	// journal carries.
	Campaign JournalMeta `json:"campaign"`
	// ShardIndex / ShardCount are the shard coordinates; TrialLo/TrialHi
	// is the owned half-open index range.
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
	TrialLo    int `json:"trial_lo"`
	TrialHi    int `json:"trial_hi"`
	// Journal is the shard's trial journal file name, relative to the
	// manifest's own directory.
	Journal string `json:"journal"`
	// Completed / Aborted count the shard's recorded trials by
	// disposition; Interrupted reports that the shard was cancelled
	// before covering its range.
	Completed   int  `json:"completed"`
	Aborted     int  `json:"aborted,omitempty"`
	Interrupted bool `json:"interrupted,omitempty"`
	// Metrics optionally carries the shard process's campaign metrics
	// snapshot (json.RawMessage so core does not depend on obsv's types;
	// the facade fills it with an obsv.Snapshot).
	Metrics json.RawMessage `json:"metrics,omitempty"`
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

// ShardManifestName returns the canonical manifest file name of shard i
// of n: shard-0003-of-0008.manifest.json.
func ShardManifestName(index, count int) string {
	return fmt.Sprintf("shard-%04d-of-%04d.manifest.json", index, count)
}

// ManifestPathFor derives the canonical manifest path for a journal
// path: the .jsonl suffix (when present) replaced by .manifest.json.
func ManifestPathFor(journalPath string) string {
	return strings.TrimSuffix(journalPath, ".jsonl") + ".manifest.json"
}

// NewShardManifest assembles a manifest from a finished shard run.
func NewShardManifest(meta JournalMeta, spec ShardSpec, journalName string, res *CampaignResult) ShardManifest {
	lo, hi := spec.Range(meta.Trials)
	return ShardManifest{
		SchemaVersion: ManifestSchemaVersion,
		Stream:        ManifestStream,
		ConfigHash:    ConfigHash(meta),
		Campaign:      meta,
		ShardIndex:    spec.Index,
		ShardCount:    spec.Count,
		TrialLo:       lo,
		TrialHi:       hi,
		Journal:       journalName,
		Completed:     res.Completed(),
		Aborted:       res.AbortedCount(),
		Interrupted:   res.Interrupted,
	}
}

// WriteManifest writes the manifest to path, stamping the stream id and
// schema version. The write is atomic (temp file + rename) so a merge
// scanning the directory never reads a torn manifest.
func WriteManifest(path string, m ShardManifest) error {
	m.SchemaVersion = ManifestSchemaVersion
	m.Stream = ManifestStream
	return writeRecord(path, "shard manifest", m)
}

// writeRecord writes v to path as one indented JSON document, atomically:
// the bytes land in a temp file that is then renamed over path, so a
// reader scanning or tailing path never sees a torn record. what names
// the record in errors.
func writeRecord(path, what string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encoding %s: %w", what, err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("core: writing %s: %w", what, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: writing %s: %w", what, err)
	}
	return nil
}

// ReadManifest reads and validates one shard manifest: stream, schema
// version, shard coordinates, and that the recorded config hash matches
// the embedded campaign identity (a hand-edited manifest cannot smuggle
// mismatched shards past the merge).
func ReadManifest(path string) (ShardManifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return ShardManifest{}, fmt.Errorf("core: reading shard manifest: %w", err)
	}
	var m ShardManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return ShardManifest{}, fmt.Errorf("core: parsing shard manifest %s: %w", path, err)
	}
	if m.Stream != ManifestStream {
		return ShardManifest{}, fmt.Errorf("core: %s is not a shard manifest (stream %q)", path, m.Stream)
	}
	if m.SchemaVersion != ManifestSchemaVersion {
		return ShardManifest{}, fmt.Errorf("core: %s: unsupported manifest schema version %d (want %d)",
			path, m.SchemaVersion, ManifestSchemaVersion)
	}
	if err := (ShardSpec{Index: m.ShardIndex, Count: m.ShardCount}).Validate(); err != nil {
		return ShardManifest{}, fmt.Errorf("core: %s: %w", path, err)
	}
	if got := ConfigHash(m.Campaign); got != m.ConfigHash {
		return ShardManifest{}, fmt.Errorf("core: %s: config hash %s does not match its own campaign identity (%s)",
			path, m.ConfigHash, got)
	}
	return m, nil
}

// Shard is one loaded shard: its manifest plus the resolved journal
// path.
type Shard struct {
	Manifest    ShardManifest
	JournalPath string
}

// LoadShardDir discovers every *.manifest.json in dir and loads it. The
// result is sorted by shard index (ties broken by file name), the order
// MergeShards applies keep-first dedup in.
func LoadShardDir(dir string) ([]Shard, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("core: reading shard directory: %w", err)
	}
	var shards []Shard
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".manifest.json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		m, err := ReadManifest(path)
		if err != nil {
			return nil, err
		}
		shards = append(shards, Shard{
			Manifest:    m,
			JournalPath: filepath.Join(dir, m.Journal),
		})
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: no shard manifests (*.manifest.json) in %s", dir)
	}
	sort.SliceStable(shards, func(i, j int) bool {
		if shards[i].Manifest.ShardIndex != shards[j].Manifest.ShardIndex {
			return shards[i].Manifest.ShardIndex < shards[j].Manifest.ShardIndex
		}
		return shards[i].JournalPath < shards[j].JournalPath
	})
	return shards, nil
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
	// shard (crashed or interrupted shards that were never resumed).
	Missing int
}

// MergeShards validates a shard set and merges its journals. Every
// manifest must carry the same config hash; each journal's own header
// must match its manifest's campaign identity. Records are merged
// keep-first in the order LoadShardDir returns (ascending shard index),
// so duplicate trial keys across shards keep the earliest shard's
// record — the cross-journal extension of the resume reader's
// within-journal rule. The merged map is keyed by trial index.
//
// Missing trials are not an error: merging the shards of an interrupted
// campaign yields a partial (resumable) result, exactly like reading the
// journal of an interrupted single-process run.
func MergeShards(shards []Shard) (JournalMeta, map[int]TrialResult, MergeStats, error) {
	if len(shards) == 0 {
		return JournalMeta{}, nil, MergeStats{}, fmt.Errorf("core: no shards to merge")
	}
	ref := shards[0].Manifest
	for _, s := range shards[1:] {
		if s.Manifest.ConfigHash != ref.ConfigHash {
			// Matches pinpoints the first differing identity field for
			// the error message; the hash is the authoritative check.
			detail := ref.Campaign.Matches(s.Manifest.Campaign)
			if detail == nil {
				detail = fmt.Errorf("config hashes differ (%s vs %s)", ref.ConfigHash, s.Manifest.ConfigHash)
			}
			return JournalMeta{}, nil, MergeStats{}, fmt.Errorf(
				"core: shard %d/%d (%s) belongs to a different campaign than shard %d/%d: %w",
				s.Manifest.ShardIndex, s.Manifest.ShardCount, s.JournalPath,
				ref.ShardIndex, ref.ShardCount, detail)
		}
	}

	merged := make(map[int]TrialResult)
	stats := MergeStats{Shards: len(shards)}
	for _, s := range shards {
		f, err := os.Open(s.JournalPath)
		if err != nil {
			return JournalMeta{}, nil, MergeStats{}, fmt.Errorf("core: opening shard journal: %w", err)
		}
		meta, recs, err := ReadJournal(f)
		f.Close()
		if err != nil {
			return JournalMeta{}, nil, MergeStats{}, fmt.Errorf("core: shard journal %s: %w", s.JournalPath, err)
		}
		if err := meta.Matches(s.Manifest.Campaign); err != nil {
			return JournalMeta{}, nil, MergeStats{}, fmt.Errorf(
				"core: shard journal %s does not match its manifest: %w", s.JournalPath, err)
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
	}
	stats.Records = len(merged)
	stats.Missing = ref.Campaign.Trials - stats.Records
	return ref.Campaign, merged, stats, nil
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
