// The trial journal: an append-only, schema-versioned JSONL record of
// every finished trial, flushed per record so a killed or interrupted
// campaign loses at most the trial being written. Because trial i's
// generator depends only on (Seed, i), replaying a journal through
// CampaignConfig.Resume and running the remaining indices is
// bit-identical to an uninterrupted run — the journal is the campaign
// engine's own "explicit recoverability" checkpoint.
//
// Format: one JSON header line (JournalMeta: stream id, schema version,
// the campaign identity used to reject resuming a different campaign,
// and the shard), one JSON record per trial, and, when the run ends, a
// trailer (JournalFinal) that marks the shard finished. The reader is
// deliberately tolerant of the failure modes of an interrupted writer:
// a torn or corrupted trailing line is skipped, and duplicate records
// for one trial keep the first occurrence, so a resume never
// double-counts.

package core

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"hrmsim/internal/obsv"
	"hrmsim/internal/simmem"
)

// JournalSchemaVersion identifies the journal record schema. Renaming or
// removing a field, or changing a field's meaning or unit, bumps this
// number; additions do not.
const JournalSchemaVersion = 1

// JournalStream is the stream identifier in every journal header.
const JournalStream = "hrmsim-trial-journal"

// JournalMeta is the journal's header line: the schema version plus the
// campaign identity, so a resume against the wrong campaign (different
// seed, size, or error type — whose trial results would be garbage) is
// rejected instead of silently merged.
type JournalMeta struct {
	SchemaVersion int    `json:"schema_version"`
	Stream        string `json:"stream"`
	// App, Error, Region, Trials, Seed, Size, and Warmup identify the
	// campaign. Two journals with equal identity describe the same
	// deterministic trial sequence.
	App    string `json:"app"`
	Error  string `json:"error"`
	Region string `json:"region,omitempty"`
	Trials int    `json:"trials"`
	Seed   int64  `json:"seed"`
	Size   int64  `json:"size,omitempty"`
	Warmup int    `json:"warmup,omitempty"`
	// TargetCI / CILevel / MinTrials / MaxTrials pin an adaptive
	// campaign's stopping rule: two adaptive runs only describe the
	// same trial sequence if they would also stop at the same boundary.
	// All zero (and omitted from JSON) for fixed campaigns, so the
	// fixed-campaign identity — and ConfigHash — is unchanged from
	// schema version 1 readers' and writers' point of view. The facade
	// writes MaxTrials equal to Trials; Matches refuses a journal that
	// an earlier build wrote with a lower cap.
	TargetCI  float64 `json:"target_ci,omitempty"`
	CILevel   float64 `json:"ci_level,omitempty"`
	MinTrials int     `json:"min_trials,omitempty"`
	MaxTrials int     `json:"max_trials,omitempty"`
	// ShardIndex / ShardCount are the writer's shard coordinates (both
	// zero for an unsharded run, which reads as shard 0/1). ConfigHash
	// leaves them out; Matches compares them, so a resume never
	// crosses shards.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
}

// Shard returns the header's shard coordinates.
func (m JournalMeta) Shard() ShardSpec {
	if m.ShardCount == 0 {
		return ShardSpec{Index: 0, Count: 1}
	}
	return ShardSpec{Index: m.ShardIndex, Count: m.ShardCount}
}

// Matches reports (as an error) any identity difference between the
// journal's campaign and the one about to run.
func (m JournalMeta) Matches(other JournalMeta) error {
	switch {
	case m.App != other.App:
		return fmt.Errorf("journal is for app %q, campaign is %q", m.App, other.App)
	case m.Error != other.Error:
		return fmt.Errorf("journal injected %q, campaign injects %q", m.Error, other.Error)
	case m.Region != other.Region:
		return fmt.Errorf("journal region filter %q, campaign %q", m.Region, other.Region)
	case m.Trials != other.Trials:
		return fmt.Errorf("journal has %d trials, campaign has %d", m.Trials, other.Trials)
	case m.Seed != other.Seed:
		return fmt.Errorf("journal seed %d, campaign seed %d", m.Seed, other.Seed)
	case m.Size != other.Size:
		return fmt.Errorf("journal size %d, campaign size %d", m.Size, other.Size)
	case m.Warmup != other.Warmup:
		return fmt.Errorf("journal warmup %d, campaign warmup %d", m.Warmup, other.Warmup)
	case m.TargetCI != other.TargetCI:
		return fmt.Errorf("journal target CI %g, campaign target CI %g", m.TargetCI, other.TargetCI)
	case m.CILevel != other.CILevel:
		return fmt.Errorf("journal CI level %g, campaign CI level %g", m.CILevel, other.CILevel)
	case m.MinTrials != other.MinTrials:
		return fmt.Errorf("journal min trials %d, campaign min trials %d", m.MinTrials, other.MinTrials)
	case m.MaxTrials != other.MaxTrials:
		return fmt.Errorf("journal max trials %d, campaign max trials %d", m.MaxTrials, other.MaxTrials)
	case m.Shard() != other.Shard():
		return fmt.Errorf("journal is shard %s, campaign runs shard %s", m.Shard(), other.Shard())
	}
	return nil
}

// JournalFinal is the trailer's body: what its records cannot say about
// the run that ended — its final ShardProgress record's timing, resume
// count and interrupt, and its metrics snapshot, when it had one.
type JournalFinal struct {
	ElapsedSeconds float64        `json:"elapsed_seconds,omitempty"`
	TrialsPerSec   float64        `json:"trials_per_sec,omitempty"`
	Resumed        int            `json:"resumed,omitempty"`
	Interrupted    bool           `json:"interrupted,omitempty"`
	Metrics        *obsv.Snapshot `json:"metrics,omitempty"`
}

// dispositionFinal marks the trailer, whose trial index −1 older
// readers drop as out of range.
const dispositionFinal = "final"

// journalRecord is one journal line. Aborted trials carry the abort
// fields and no result; completed trials carry the full result with
// virtual times as integer nanoseconds, so a read-back is bit-identical
// to the in-memory TrialResult.
type journalRecord struct {
	Trial       int               `json:"trial"`
	Disposition string            `json:"disposition"`
	AbortReason string            `json:"abort_reason,omitempty"`
	AbortDetail string            `json:"abort_detail,omitempty"`
	Result      *journalTrialJSON `json:"result,omitempty"`
	Final       *JournalFinal     `json:"final,omitempty"`
}

type journalTrialJSON struct {
	Outcome       string  `json:"outcome"`
	Region        string  `json:"region"`
	RegionKind    string  `json:"region_kind"`
	InjectedAtNs  int64   `json:"injected_at_ns"`
	EffectAtNs    int64   `json:"effect_at_ns,omitempty"`
	Incorrect     int     `json:"incorrect,omitempty"`
	IncorrectAtNs []int64 `json:"incorrect_at_ns,omitempty"`
	Requests      int     `json:"requests"`
	EndedAtNs     int64   `json:"ended_at_ns"`
	CrashReason   string  `json:"crash_reason,omitempty"`
	CrashStack    string  `json:"crash_stack,omitempty"`
}

func toJournalRecord(tr TrialResult) journalRecord {
	rec := journalRecord{
		Trial:       tr.Index,
		Disposition: tr.Disposition.String(),
		AbortReason: tr.AbortReason,
		AbortDetail: tr.AbortDetail,
	}
	if tr.Disposition != DispositionCompleted {
		return rec
	}
	j := &journalTrialJSON{
		Outcome:      tr.Outcome.String(),
		Region:       tr.Region,
		RegionKind:   tr.Kind.String(),
		InjectedAtNs: int64(tr.InjectedAt),
		EffectAtNs:   int64(tr.EffectAt),
		Incorrect:    tr.Incorrect,
		Requests:     tr.Requests,
		EndedAtNs:    int64(tr.EndedAt),
		CrashReason:  tr.CrashReason,
		CrashStack:   tr.CrashStack,
	}
	for _, at := range tr.IncorrectAt {
		j.IncorrectAtNs = append(j.IncorrectAtNs, int64(at))
	}
	rec.Result = j
	return rec
}

// recordToTrial validates and converts one parsed journal line. A record
// that does not decode to a well-formed trial (unknown disposition or
// outcome, missing result) is treated like a corrupted line.
func recordToTrial(rec journalRecord) (TrialResult, bool) {
	switch rec.Disposition {
	case DispositionAborted.String():
		return TrialResult{
			Index:       rec.Trial,
			Disposition: DispositionAborted,
			AbortReason: rec.AbortReason,
			AbortDetail: rec.AbortDetail,
		}, true
	case DispositionCompleted.String():
		if rec.Result == nil {
			return TrialResult{}, false
		}
		o, ok := outcomeFromName(rec.Result.Outcome)
		if !ok {
			return TrialResult{}, false
		}
		k, ok := regionKindFromName(rec.Result.RegionKind)
		if !ok {
			return TrialResult{}, false
		}
		tr := TrialResult{
			Index:       rec.Trial,
			Outcome:     o,
			Region:      rec.Result.Region,
			Kind:        k,
			InjectedAt:  time.Duration(rec.Result.InjectedAtNs),
			EffectAt:    time.Duration(rec.Result.EffectAtNs),
			Incorrect:   rec.Result.Incorrect,
			Requests:    rec.Result.Requests,
			EndedAt:     time.Duration(rec.Result.EndedAtNs),
			CrashReason: rec.Result.CrashReason,
			CrashStack:  rec.Result.CrashStack,
		}
		for _, ns := range rec.Result.IncorrectAtNs {
			tr.IncorrectAt = append(tr.IncorrectAt, time.Duration(ns))
		}
		return tr, true
	}
	return TrialResult{}, false
}

// Journal appends trial records to a stream, flushing after every record
// so an interrupted campaign loses at most the line being written.
// Append is safe for concurrent use by the campaign's workers. Write
// errors are sticky: the first one is kept and returned by every later
// Append, Err, and Close, so the campaign itself keeps running.
type Journal struct {
	mu     sync.Mutex
	w      io.Writer
	bw     *bufio.Writer
	err    error
	closed bool
}

// NewJournal wraps w as a fresh journal, writing the header line
// immediately (the stream id and schema version are stamped on).
func NewJournal(w io.Writer, meta JournalMeta) (*Journal, error) {
	meta.SchemaVersion = JournalSchemaVersion
	meta.Stream = JournalStream
	j := &Journal{w: w, bw: bufio.NewWriter(w)}
	b, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("core: encoding journal header: %w", err)
	}
	j.bw.Write(b)
	j.bw.WriteByte('\n')
	if err := j.bw.Flush(); err != nil {
		return nil, fmt.Errorf("core: writing journal header: %w", err)
	}
	return j, nil
}

// OpenJournal opens path for journaling, creating it (with a header) if
// missing, empty, or holding only part of a header line: a writer killed
// before its header landed left no campaign to match and no record to
// keep. If the file already holds a journal, its header must match
// meta's campaign identity and shard; the file is then repaired for
// appending — a torn trailing line from a killed writer is terminated
// so the next record starts clean (the tolerant reader skips the torn
// line). The second return reports whether prior records existed.
func OpenJournal(path string, meta JournalMeta) (*Journal, bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("core: opening journal: %w", err)
	}
	j, existed, err := openJournal(f, meta)
	if err != nil {
		f.Close()
		return nil, false, fmt.Errorf("core: journal %s: %w", path, err)
	}
	return j, existed, nil
}

func openJournal(f *os.File, meta JournalMeta) (*Journal, bool, error) {
	st, err := f.Stat()
	if err == nil && st.Size() > 0 {
		var existing JournalMeta
		if existing, _, err = ReadJournal(f); err == nil {
			if err := existing.Matches(meta); err != nil {
				return nil, false, fmt.Errorf("belongs to a different campaign: %w", err)
			}
			// Terminate a torn trailing line before appending.
			last := make([]byte, 1)
			if _, err = f.ReadAt(last, st.Size()-1); err == nil {
				_, err = f.Seek(0, io.SeekEnd)
			}
			if err == nil && last[0] != '\n' {
				_, err = f.Write([]byte{'\n'})
			}
			return &Journal{w: f, bw: bufio.NewWriter(f)}, true, err
		}
		if errors.Is(err, errTornHeader) {
			if err = f.Truncate(0); err == nil {
				_, err = f.Seek(0, io.SeekStart)
			}
		}
	}
	if err != nil {
		return nil, false, err
	}
	j, err := NewJournal(f, meta)
	return j, false, err
}

// Append writes one trial record and flushes it.
func (j *Journal) Append(tr TrialResult) error {
	return j.write(toJournalRecord(tr))
}

// Finish writes and flushes the trailer: the run has ended.
func (j *Journal) Finish(final JournalFinal) error {
	return j.write(journalRecord{Trial: -1, Disposition: dispositionFinal, Final: &final})
}

func (j *Journal) write(rec journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.closed {
		j.err = fmt.Errorf("core: append to closed journal")
		return j.err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		j.err = fmt.Errorf("core: encoding journal record: %w", err)
		return j.err
	}
	j.bw.Write(b)
	j.bw.WriteByte('\n')
	if err := j.bw.Flush(); err != nil {
		j.err = fmt.Errorf("core: writing journal record: %w", err)
	}
	return j.err
}

// Err returns the sticky write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes and, when the underlying writer is a closer (a file),
// closes it. It returns the sticky error.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.err
	}
	j.closed = true
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = fmt.Errorf("core: flushing journal: %w", err)
	}
	if c, ok := j.w.(io.Closer); ok {
		if err := c.Close(); err != nil && j.err == nil {
			j.err = fmt.Errorf("core: closing journal: %w", err)
		}
	}
	return j.err
}

// journalMaxLine bounds one journal line (a record with a full
// 256-sample incorrect-time list and a crash stack fits well within it).
const journalMaxLine = 4 << 20

// errTornHeader: the first line has no newline, its writer died first.
var errTornHeader = errors.New("journal header line is incomplete")

// ReadJournal parses a trial journal for resuming. The header must be
// intact (a journal whose identity cannot be established is useless for
// resume), but the records are read tolerantly: lines that do not parse
// or validate — the torn tail of a killed writer — are skipped, reading
// continues, and duplicate records for one trial keep the first, so a
// resume never double-counts a trial. Records whose index falls outside
// [0, meta.Trials) are likewise dropped: trailers (index −1), and the
// index −1 planner-decision records earlier builds wrote, so their
// journals still resume.
func ReadJournal(r io.Reader) (JournalMeta, map[int]TrialResult, error) {
	meta, out, _, err := readJournal(r)
	return meta, out, err
}

// readJournal is ReadJournal that also returns the trailer when it is
// the journal's last complete line (nil otherwise: the run that wrote
// the records has not ended, or was killed).
func readJournal(r io.Reader) (JournalMeta, map[int]TrialResult, *JournalFinal, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), journalMaxLine)
	complete := false // the last line scanned ended in a newline
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if tok != nil {
			complete = data[adv-1] == '\n'
		}
		return adv, tok, err
	})
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return JournalMeta{}, nil, nil, fmt.Errorf("reading journal header: %w", err)
		}
		return JournalMeta{}, nil, nil, fmt.Errorf("journal is empty")
	}
	if !complete {
		return JournalMeta{}, nil, nil, errTornHeader
	}
	var meta JournalMeta
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		return JournalMeta{}, nil, nil, fmt.Errorf("parsing journal header: %w", err)
	}
	if meta.Stream != JournalStream {
		return JournalMeta{}, nil, nil, fmt.Errorf("not a trial journal (stream %q)", meta.Stream)
	}
	if meta.SchemaVersion != JournalSchemaVersion {
		return JournalMeta{}, nil, nil, fmt.Errorf("unsupported journal schema version %d (want %d)",
			meta.SchemaVersion, JournalSchemaVersion)
	}
	out := make(map[int]TrialResult)
	var final *JournalFinal
	for sc.Scan() {
		var rec journalRecord
		err := json.Unmarshal(sc.Bytes(), &rec)
		if complete {
			final = nil
		}
		if err != nil {
			continue
		}
		if rec.Disposition == dispositionFinal && rec.Final != nil {
			if complete {
				final = rec.Final
			}
			continue
		}
		if rec.Trial < 0 || rec.Trial >= meta.Trials {
			continue
		}
		if _, dup := out[rec.Trial]; dup {
			continue
		}
		tr, ok := recordToTrial(rec)
		if !ok {
			continue
		}
		out[rec.Trial] = tr
	}
	// A scanner error here (an over-long torn tail) is tolerated the
	// same way a corrupted line is: keep what parsed. The last complete
	// line is then unknown, so the run reads as not ended.
	if sc.Err() != nil {
		final = nil
	}
	return meta, out, final, nil
}

// outcomeFromName is the inverse of Outcome.String for journal decoding.
func outcomeFromName(s string) (Outcome, bool) {
	for _, o := range Outcomes() {
		if o.String() == s {
			return o, true
		}
	}
	return 0, false
}

// regionKindFromName is the inverse of simmem.RegionKind.String.
func regionKindFromName(s string) (simmem.RegionKind, bool) {
	for _, k := range []simmem.RegionKind{
		simmem.RegionPrivate, simmem.RegionHeap, simmem.RegionStack, simmem.RegionOther,
	} {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}
