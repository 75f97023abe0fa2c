#!/bin/sh
# End-to-end smoke test of the campaign supervisor's interrupt/resume
# path, using real signals against the real binary (what the in-process
# tests cannot cover):
#
#   1. run an uninterrupted characterize campaign as the baseline,
#   2. start the same campaign with -journal, SIGINT it mid-flight,
#   3. resume from the journal with -resume -journal,
#   4. diff the -json outcome counts and aggregates against the baseline.
#
# It makes two passes: a fixed campaign, then an adaptive (-target-ci)
# one whose comparison adds the plan (planned_trials, trials_saved).
# The resumed run must be bit-identical to the uninterrupted one. If the
# interrupt misses the window (the campaign finished before the signal),
# the comparison still holds trivially and the script passes.
#
#   scripts/resume_smoke.sh            # fixed pass: websearch small, 1000 trials
#   TRIALS=4000 scripts/resume_smoke.sh
set -eu
cd "$(dirname "$0")/.."

TRIALS="${TRIALS:-1000}"
APP="${APP:-websearch}"
SEED="${SEED:-7}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

BIN="$TMP/hrmsim"
go build -o "$BIN" ./cmd/hrmsim

# smoke_pass LABEL EXTRA_KEYS ARGS...: the four steps above for the
# campaign ARGS describe; EXTRA_KEYS (comma-separated) are result keys
# compared beyond the common ones.
smoke_pass() {
    label="$1"; keys="$2"; shift 2
    dir="$TMP/$label"
    mkdir "$dir"

    echo "resume_smoke: $label baseline ($*)" >&2
    "$BIN" characterize "$@" -json >"$dir/baseline.json"

    echo "resume_smoke: $label: interrupting a journaled run" >&2
    # Background the binary itself (not a shell function wrapping it) so
    # the SIGINT reaches the hrmsim process.
    "$BIN" characterize "$@" -json -journal "$dir/trials.jsonl" \
        >"$dir/interrupted.json" &
    PID=$!
    sleep 2
    kill -INT "$PID" 2>/dev/null || true
    wait "$PID" || true

    if [ -s "$dir/trials.jsonl" ]; then
        records=$(($(wc -l <"$dir/trials.jsonl") - 1))
        echo "resume_smoke: $label: journal holds $records trial records" >&2
    else
        echo "resume_smoke: WARNING: $label: no journal written (campaign too fast?)" >&2
    fi

    echo "resume_smoke: $label: resuming from the journal" >&2
    "$BIN" characterize "$@" -json -journal "$dir/trials.jsonl" \
        -resume "$dir/trials.jsonl" >"$dir/resumed.json"

    echo "resume_smoke: $label: comparing resumed run to baseline" >&2
    python3 - "$label" "$keys" "$dir/baseline.json" "$dir/resumed.json" <<'PY'
import json, sys

label, extra = sys.argv[1], [k for k in sys.argv[2].split(",") if k]
with open(sys.argv[3]) as f:
    base = json.load(f)["result"]
with open(sys.argv[4]) as f:
    resumed = json.load(f)["result"]

# Everything except the resume bookkeeping must match bit-for-bit.
KEYS = [
    "app", "error", "region", "trials", "outcomes",
    "crash_probability", "crash_ci_low", "crash_ci_high",
    "tolerated_probability", "incorrect_per_billion",
    "max_incorrect_per_billion", "completed_trials",
    "crash_minutes", "incorrect_minutes", "all_incorrect_minutes",
] + extra
bad = [k for k in KEYS if base.get(k) != resumed.get(k)]
if bad:
    for k in bad:
        print(f"resume_smoke: {label}: MISMATCH {k}:", file=sys.stderr)
        print(f"  baseline: {base.get(k)}", file=sys.stderr)
        print(f"  resumed:  {resumed.get(k)}", file=sys.stderr)
    sys.exit(1)
if resumed.get("interrupted"):
    print(f"resume_smoke: {label}: resumed run still reports interrupted", file=sys.stderr)
    sys.exit(1)
print(f"resume_smoke: {label}: PASS — resumed run bit-identical to baseline "
      f"({resumed.get('resumed_trials', 0)} trials replayed from the journal)")
PY
}

smoke_pass fixed "" -app "$APP" -size small -trials "$TRIALS" -seed "$SEED" -parallelism 2

# An adaptive campaign (-target-ci) plans about 2000 of its 4000 trials
# in about 5 s, so the SIGINT lands mid-plan and the resume must re-derive
# the interrupted run's verdicts from its trial records.
smoke_pass adaptive planned_trials,trials_saved -app websearch -error hard-1bit \
    -region stack -size small -trials 4000 -target-ci 0.02 -seed 7 -parallelism 2
