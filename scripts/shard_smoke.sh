#!/bin/sh
# End-to-end smoke test of the sharding subsystem with real worker
# processes and real signals (what the in-process tests cannot cover):
#
#   1. run an unsharded characterize campaign as the baseline,
#   2. run the same campaign as 2 shard worker processes, each given
#      -journal (a shard's one file), and `hrmsim merge` the shard
#      directory,
#   3. kill-and-resume pass: run a second campaign (websearch, 600
#      trials, slow enough to be caught mid-flight) as 2 workers, each in
#      the bounded -resume retry loop SHARDING.md documents; SIGKILL
#      worker 1 once its journal holds at least 20 records, let its loop's
#      -resume attempt finish the shard, and merge,
#   4. diff both merged -json results against their campaign's
#      single-process baseline, and after each merge `hrmsim explain` one
#      trial from each shard's journal (for the killed worker, a trial
#      its killed attempt recorded): each must exit 0 with the chain that
#      ends "equals the journaled record",
#   5. assert the one shard file: the shard directory holds only the two
#      journals, each ending in its trailer, and `hrmsim status` reports
#      the settled fleet view (all trials done, 0 running) that matches
#      the merge; the killed attempt's journal has no trailer, and worker
#      1's final trailer counts resumed trials.
#
# Both merged results must be bit-identical to the single-process run,
# modulo the documented run-shape bookkeeping (`parallelism`,
# `resumed_trials` — see SHARDING.md).
#
#   scripts/shard_smoke.sh             # default: kvstore small, 600 trials
#   TRIALS=4000 scripts/shard_smoke.sh
set -eu
cd "$(dirname "$0")/.."

TRIALS="${TRIALS:-600}"
APP="${APP:-kvstore}"
SEED="${SEED:-9}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

BIN="$TMP/hrmsim"
go build -o "$BIN" ./cmd/hrmsim

echo "shard_smoke: baseline ($APP, $TRIALS trials)" >&2
"$BIN" characterize -app "$APP" -size small -trials "$TRIALS" \
    -seed "$SEED" -json >"$TMP/baseline.json"

echo "shard_smoke: adaptive campaigns must refuse worker-shard mode" >&2
if "$BIN" characterize -app "$APP" -size small -trials "$TRIALS" \
    -seed "$SEED" -target-ci 0.05 -shard 0/2 2>"$TMP/reject.err"; then
    echo "shard_smoke: FAIL — -target-ci with -shard 0/2 was accepted" >&2
    exit 1
fi
grep -q 'index space' "$TMP/reject.err" || {
    echo "shard_smoke: FAIL — rejection of -target-ci with -shard 0/2 does not explain the conflict:" >&2
    cat "$TMP/reject.err" >&2
    exit 1
}

echo "shard_smoke: running 2 shard worker processes" >&2
mkdir "$TMP/shards"
for i in 0 1; do
    "$BIN" characterize -app "$APP" -size small -trials "$TRIALS" \
        -seed "$SEED" -shard "$i/2" \
        -journal "$TMP/shards/shard-000$i-of-0002.jsonl" &
done
wait

if [ "$(ls "$TMP/shards")" != "$(printf 'shard-0000-of-0002.jsonl\nshard-0001-of-0002.jsonl')" ]; then
    echo "shard_smoke: FAIL — the shard directory holds more than the two journals:" >&2
    ls "$TMP/shards" >&2
    exit 1
fi
for i in 0 1; do
    if ! tail -n 1 "$TMP/shards/shard-000$i-of-0002.jsonl" | grep -q '^{"trial":-1,"disposition":"final"'; then
        echo "shard_smoke: FAIL — shard $i's journal does not end in a trailer" >&2
        exit 1
    fi
done

echo "shard_smoke: merging the shard directory" >&2
"$BIN" merge -dir "$TMP/shards" -json >"$TMP/merged.json"

# explain_first JOURNAL [SOURCE]: `hrmsim explain` the first trial SOURCE
# (default JOURNAL) records, re-run from JOURNAL; it must exit 0 and print
# the causal chain, which ends "equals the journaled record".
explain_first() {
    j="$1"; src="${2:-$1}"
    trial="$(sed -n 2p "$src" | grep -o '^{"trial":[0-9]*' | cut -d: -f2)"
    : >"$TMP/explain.txt"
    if [ -z "$trial" ] || ! "$BIN" explain "$j" "$trial" >"$TMP/explain.txt" 2>&1 ||
        ! grep -q 'equals the journaled record' "$TMP/explain.txt"; then
        echo "shard_smoke: FAIL — hrmsim explain $j ${trial:-(no trial record)}:" >&2
        cat "$TMP/explain.txt" >&2
        exit 1
    fi
}

echo "shard_smoke: explaining one trial of each shard journal" >&2
for i in 0 1; do
    explain_first "$TMP/shards/shard-000$i-of-0002.jsonl"
done

echo "shard_smoke: reading the journals back (hrmsim status)" >&2
"$BIN" status -json "$TMP/shards" >"$TMP/fleet.json"
"$BIN" status "$TMP/shards" >"$TMP/status.txt"
grep -q '(100%)' "$TMP/status.txt" || {
    echo "shard_smoke: FAIL — status view does not show 100%:" >&2
    cat "$TMP/status.txt" >&2
    exit 1
}

# retry_shard DIR I N ARGS...: worker I of N of the campaign ARGS
# describe, journaling into DIR, in SHARDING.md's bounded retry loop: an
# attempt that fails is retried with -resume on the shard's journal, at
# most 3 attempts in all. Two additions serve the checks below: each
# attempt runs in the background so its pid can be recorded for the
# kill, and a failed attempt's journal is copied aside before the next
# attempt appends to it.
retry_shard() {
    dir="$1"; i="$2"; n="$3"; shift 3
    j="$dir/shard-000$i-of-000$n.jsonl"
    for attempt in 1 2 3; do
        resume=""
        [ -s "$j" ] && resume="-resume $j"
        # shellcheck disable=SC2086  # $resume is intentionally word-split
        "$BIN" characterize "$@" -shard "$i/$n" -journal "$j" $resume >/dev/null &
        echo $! >"$dir/worker-$i.pid"
        wait $! && return 0
        cp "$j" "$dir/worker-$i.attempt-$attempt.copy" || true
    done
    return 1
}

KILL_CAMPAIGN="-app websearch -size small -trials 600 -seed 9"
echo "shard_smoke: kill-and-resume baseline ($KILL_CAMPAIGN)" >&2
# shellcheck disable=SC2086  # $KILL_CAMPAIGN is intentionally word-split
"$BIN" characterize $KILL_CAMPAIGN -json >"$TMP/kill-baseline.json"

echo "shard_smoke: 2 workers in the retry loop, SIGKILL of worker 1 mid-flight" >&2
mkdir "$TMP/killed"
# shellcheck disable=SC2086
retry_shard "$TMP/killed" 0 2 $KILL_CAMPAIGN &
W0=$!
# shellcheck disable=SC2086
retry_shard "$TMP/killed" 1 2 $KILL_CAMPAIGN &
W1=$!
J1="$TMP/killed/shard-0001-of-0002.jsonl"
# The journal's first line is its header; each further line is a trial.
while [ ! -f "$J1" ] || [ "$(wc -l <"$J1")" -le 20 ]; do
    kill -0 "$W1" 2>/dev/null || break
    sleep 0.02
done
kill -KILL "$(cat "$TMP/killed/worker-1.pid")" 2>/dev/null || true
wait "$W0" || { echo "shard_smoke: FAIL — worker 0's retry loop gave up" >&2; exit 1; }
wait "$W1" || { echo "shard_smoke: FAIL — worker 1's retry loop gave up" >&2; exit 1; }
killed="$TMP/killed/worker-1.attempt-1.copy"
if [ ! -s "$killed" ]; then
    echo "shard_smoke: FAIL — worker 1's first attempt was not killed (it finished first, or left no journal)" >&2
    exit 1
fi
"$BIN" merge -dir "$TMP/killed" -json >"$TMP/killed-merged.json"

echo "shard_smoke: explaining one trial of each killed-run shard, worker 1's recorded before the kill" >&2
explain_first "$TMP/killed/shard-0000-of-0002.jsonl"
explain_first "$TMP/killed/shard-0001-of-0002.jsonl" "$killed"

echo "shard_smoke: comparing merged results to baseline" >&2
python3 - "$TMP/baseline.json" "$TMP/merged.json" "$TMP/fleet.json" \
    "$TMP/kill-baseline.json" "$TMP/killed-merged.json" "$killed" \
    "$TMP/killed/shard-0001-of-0002.jsonl" <<'PY'
import json, sys

docs = []
for path in sys.argv[1:6]:
    with open(path) as f:
        docs.append((json.load(f), path))
(base, _), merged, (status, status_path), (kill_base, _), killed_merged = docs


def trailer(path):
    """The journal's trailer, when its last complete line is one."""
    with open(path) as f:
        lines = f.read().split("\n")[:-1]  # a torn tail is not a line
    try:
        rec = json.loads(lines[-1])
    except (ValueError, IndexError):
        return None
    return rec.get("final") if rec.get("disposition") == "final" else None


killed_path, final_path = sys.argv[6], sys.argv[7]

# Everything except the run-shape bookkeeping must match bit-for-bit
# (SHARDING.md: a merge has no worker pool, so `parallelism` is 0).
KEYS = [
    "app", "error", "region", "trials", "outcomes",
    "crash_probability", "crash_ci_low", "crash_ci_high",
    "tolerated_probability", "incorrect_per_billion",
    "max_incorrect_per_billion", "completed_trials",
    "crash_minutes", "incorrect_minutes", "all_incorrect_minutes",
]

failed = False
for want_doc, (got, path) in ((base, merged), (kill_base, killed_merged)):
    res, want = got["result"], want_doc["result"]
    bad = [k for k in KEYS if want.get(k) != res.get(k)]
    for k in bad:
        failed = True
        print(f"shard_smoke: MISMATCH {k} in {path}:", file=sys.stderr)
        print(f"  baseline: {want.get(k)}", file=sys.stderr)
        print(f"  sharded:  {res.get(k)}", file=sys.stderr)
    if res.get("interrupted"):
        failed = True
        print(f"shard_smoke: {path} reports interrupted", file=sys.stderr)
    m = got.get("merged") or {}
    if m.get("records") != want["trials"] or m.get("missing"):
        failed = True
        print(f"shard_smoke: {path} merge accounting wrong: {m}", file=sys.stderr)
    if len(m.get("shards", [])) != 2:
        failed = True
        print(f"shard_smoke: {path} merged {len(m.get('shards', []))} shards, want 2",
              file=sys.stderr)
# The settled fleet view must agree with the merged science: every
# trial accounted for, nobody still running, and the outcome taxonomy
# identical to the merged result's.
fleet = status["result"]
want = base["result"]
if fleet.get("done") != want["trials"] or fleet.get("trials") != want["trials"]:
    failed = True
    print(f"shard_smoke: status done/trials {fleet.get('done')}/{fleet.get('trials')}"
          f" != campaign trials {want['trials']}", file=sys.stderr)
if fleet.get("running") != 0:
    failed = True
    print(f"shard_smoke: status reports {fleet.get('running')} running after the run",
          file=sys.stderr)
if len(fleet.get("shards", [])) != 2:
    failed = True
    print(f"shard_smoke: status sees {len(fleet.get('shards', []))} shards, want 2",
          file=sys.stderr)
if fleet.get("outcomes") != want.get("outcomes"):
    failed = True
    print(f"shard_smoke: status outcomes {fleet.get('outcomes')}"
          f" != baseline {want.get('outcomes')}", file=sys.stderr)

# The SIGKILLed attempt never wrote its trailer, and the -resume attempt
# that finished the shard kept the killed attempt's trials.
if trailer(killed_path) is not None:
    failed = True
    print(f"shard_smoke: killed attempt's journal {killed_path} ends in a trailer",
          file=sys.stderr)
final_rec = trailer(final_path) or {}
if not final_rec.get("resumed", 0) > 0:
    failed = True
    print(f"shard_smoke: worker 1's journal {final_path} does not end in a trailer "
          f"counting resumed trials: {final_rec}", file=sys.stderr)

if failed:
    sys.exit(1)
print("shard_smoke: PASS — manual 2-shard merge and the killed-and-resumed "
      "2-shard run both bit-identical to their single-process baselines "
      f"(worker 1 resumed {final_rec['resumed']} trials), and the status "
      "view of the journals settles to the same counts")
PY
