// Shard heartbeat/status records: the campaign control plane's on-disk
// contract. The supervisor reports a campaign's progress as one record,
// ShardProgress (trials done/total, dispositions, throughput, ETA,
// outcome taxonomy counts so far), through the RunOptions.Progress hook.
// The facade's status writer consumes that hook: at most once per
// status interval, and always for the initial and final records, it
// wraps the record in a ShardStatus — shard coordinates, identity,
// timestamp and a full obsv registry snapshot — and writes it to a
// well-known file next to the shard's journal (atomic temp-file +
// rename), so any observer — `hrmsim status`, or a human with cat — can
// read a consistent view of a live or dead campaign without touching the
// journal. The final record of a run has Running=false: it
// lets `hrmsim status` render a finished campaign directory identically
// to a live one, and, when it names the shard's journal, it is the
// record `hrmsim merge` consumes (shard.go) — one record of a finished
// shard for both commands.
package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hrmsim/internal/obsv"
)

// StatusSchemaVersion identifies the shard status record schema,
// versioned independently of the journal and the -json envelope.
// The usual rule: renaming or reinterpreting a field bumps it, additions
// do not.
const StatusSchemaVersion = 1

// StatusStream is the stream identifier in every status record.
const StatusStream = "hrmsim-shard-status"

// ShardProgress is a campaign's progress record: what the supervisor
// passes to the RunOptions.Progress hook about its own run. It is
// declared once and embedded both in the on-disk record (ShardStatus) and
// in the fleet view's per-shard row (hrmsim.ShardStatusInfo), so the two
// documents share these keys, their order and their omitempty rules by
// construction.
type ShardProgress struct {
	// TrialLo/TrialHi is the owned half-open trial index range.
	TrialLo int `json:"trial_lo"`
	TrialHi int `json:"trial_hi"`
	// Done counts trials with a result so far (completed + aborted,
	// including resumed records); Total is the shard's range size, or
	// an adaptive plan's current extent.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Dispositions: Completed trials reached Fig. 1 classification,
	// Aborted ones were given up on, Resumed ones were merged from a
	// previous run's journal (Resumed trials also count under their
	// disposition).
	Completed int `json:"completed"`
	Aborted   int `json:"aborted,omitempty"`
	Resumed   int `json:"resumed,omitempty"`
	// Outcomes counts completed trials per Fig. 1 taxonomy label
	// (Outcome.String() keys: "crash", "masked-by-overwrite", ...). The
	// supervisor always sets it, so a heartbeat with no completed trial
	// carries {}; records from earlier writers omit the key.
	Outcomes map[string]int `json:"outcomes"`
	// TrialsPerSec is the rate of the trials run by this process (Done
	// minus Resumed, over ElapsedSeconds, the host wall time since the
	// run started); EtaSeconds projects Total−Done at that rate (zero on
	// the final record).
	TrialsPerSec   float64 `json:"trials_per_sec,omitempty"`
	EtaSeconds     float64 `json:"eta_seconds,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	// Adaptive-plan telemetry, present only when the campaign runs
	// under an adaptive plan (all omitempty; the plan is still open-ended
	// while Adaptive && !PlanFinal):
	// CIHalfWidth is the latest Wilson CI half-width verdict on the
	// crash probability (1 until the first evaluation boundary);
	// PlannedTrials is the plan's current extent, the end of the
	// running segment (Total tracks it, so done/total stays meaningful);
	// PlanFinal marks the stopping rule has fired; TrialsSaved is the
	// requested-minus-planned trial count once the plan is final.
	Adaptive      bool    `json:"adaptive,omitempty"`
	CIHalfWidth   float64 `json:"ci_half_width,omitempty"`
	PlannedTrials int     `json:"planned_trials,omitempty"`
	PlanFinal     bool    `json:"plan_final,omitempty"`
	TrialsSaved   int     `json:"trials_saved,omitempty"`
	// Running is true on every heartbeat but the final one; Interrupted
	// is set on the final record of a cancelled run, and of a run whose
	// journal failed a write (that record names no journal).
	Running     bool `json:"running"`
	Interrupted bool `json:"interrupted,omitempty"`
}

// ShardStatus is one shard's heartbeat: a point-in-time progress record
// as the facade's status writer persists it. The supervisor fills the
// progress block; the writer stamps the shard coordinates, the
// timestamp, the metrics snapshot and the identity fields (ConfigHash,
// Campaign, Journal).
type ShardStatus struct {
	SchemaVersion int    `json:"schema_version"`
	Stream        string `json:"stream"`
	// ConfigHash / Campaign are the campaign identity evidence (the
	// journal header and its hash), so status files from different
	// campaigns cannot be silently aggregated or merged (stamped by the
	// facade).
	ConfigHash string      `json:"config_hash,omitempty"`
	Campaign   JournalMeta `json:"campaign,omitempty"`
	// Journal is the shard's trial journal path, relative to the
	// record's own directory; empty when the run keeps no journal, and
	// on the final record when the journal failed a write (stamped by
	// the facade). A final record (Running=false) that names
	// a journal is a finished shard MergeShards consumes.
	Journal string `json:"journal,omitempty"`
	// ShardIndex / ShardCount are the shard coordinates.
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
	ShardProgress
	// WallUnixNanos is the host wall-clock instant the record was
	// assembled — the heartbeat timestamp observers age against.
	WallUnixNanos int64 `json:"wall_unix_ns"`
	// Metrics is the shard's full obsv registry snapshot at heartbeat
	// time, merged fleet-wide by obsv.MergeSnapshots.
	Metrics *obsv.Snapshot `json:"metrics,omitempty"`
}

// DefaultStatusInterval is the heartbeat period when
// hrmsim.CharacterizeConfig.StatusInterval is zero.
const DefaultStatusInterval = 1 * time.Second

// ShardStatusName returns the canonical status file name of shard i of
// n: shard-0003-of-0008.status.json, sorting beside the shard's journal.
func ShardStatusName(index, count int) string {
	return fmt.Sprintf("shard-%04d-of-%04d.status.json", index, count)
}

// StatusPathFor derives the canonical status path for a journal path:
// the .jsonl suffix (when present) replaced by .status.json.
func StatusPathFor(journalPath string) string {
	return strings.TrimSuffix(journalPath, ".jsonl") + ".status.json"
}

// WriteStatus writes the status record to path, stamping the stream id
// and schema version. The write is atomic (temp file + rename), so a
// tailing observer or a merge never reads a torn record; each heartbeat
// simply replaces the last.
func WriteStatus(path string, st ShardStatus) error {
	st.SchemaVersion = StatusSchemaVersion
	st.Stream = StatusStream
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encoding shard status: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("core: writing shard status: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: writing shard status: %w", err)
	}
	return nil
}

// ReadStatus reads and validates one shard status record: stream, schema
// version, and shard coordinates.
func ReadStatus(path string) (ShardStatus, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return ShardStatus{}, fmt.Errorf("core: reading shard status: %w", err)
	}
	var st ShardStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return ShardStatus{}, fmt.Errorf("core: parsing shard status %s: %w", path, err)
	}
	if st.Stream != StatusStream {
		return ShardStatus{}, fmt.Errorf("core: %s is not a shard status record (stream %q)", path, st.Stream)
	}
	if st.SchemaVersion != StatusSchemaVersion {
		return ShardStatus{}, fmt.Errorf("core: %s: unsupported status schema version %d (want %d)",
			path, st.SchemaVersion, StatusSchemaVersion)
	}
	if err := (ShardSpec{Index: st.ShardIndex, Count: st.ShardCount}).Validate(); err != nil {
		return ShardStatus{}, fmt.Errorf("core: %s: %w", path, err)
	}
	return st, nil
}

// LoadStatusDir discovers every *.status.json in dir and loads it,
// sorted by shard index (ties broken by file name) — the order
// MergeShards applies keep-first dedup in. Every record must carry the
// first one's config hash, so `hrmsim status` and `hrmsim merge`, which
// both load a directory here, refuse the same mixed-campaign
// directories; JournalMeta.Matches names the first differing identity
// field, the hash is the authoritative check. An empty result is not an
// error: a campaign directory legitimately has no status files before
// the first heartbeat (or when run without a status sink).
func LoadStatusDir(dir string) ([]ShardStatus, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("core: reading shard directory: %w", err)
	}
	type loaded struct {
		st   ShardStatus
		name string
	}
	var all []loaded
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".status.json") {
			continue
		}
		st, err := ReadStatus(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		all = append(all, loaded{st, e.Name()})
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].st.ShardIndex != all[j].st.ShardIndex {
			return all[i].st.ShardIndex < all[j].st.ShardIndex
		}
		return all[i].name < all[j].name
	})
	out := make([]ShardStatus, len(all))
	for i, l := range all {
		out[i] = l.st
		if ref := out[0]; l.st.ConfigHash != ref.ConfigHash {
			detail := ref.Campaign.Matches(l.st.Campaign)
			if detail == nil {
				detail = fmt.Errorf("config hashes differ (%s vs %s)", ref.ConfigHash, l.st.ConfigHash)
			}
			return nil, fmt.Errorf("core: shard %d/%d (%s) belongs to a different campaign than shard %d/%d: %w",
				l.st.ShardIndex, l.st.ShardCount, l.name, ref.ShardIndex, ref.ShardCount, detail)
		}
	}
	return out, nil
}
