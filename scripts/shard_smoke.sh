#!/bin/sh
# End-to-end smoke test of the sharding subsystem with real worker
# processes (what the in-process tests cannot cover — under `go test`
# the coordinator's launcher is stubbed because os.Executable() is the
# test binary):
#
#   1. run an unsharded characterize campaign as the baseline,
#   2. run the same campaign as 2 shard worker processes, each given
#      only -journal (the status record path is derived from it), and
#      `hrmsim merge` the shard directory,
#   3. run it once more through `-coordinator -shards 2` (spawns real
#      worker processes, auto-merges),
#   4. diff both merged -json results against the baseline,
#   5. assert the one shard record: each manual worker's final status
#      record says it is no longer running and names its journal, and
#      `hrmsim status` reports the settled fleet view (all trials done,
#      0 running) that matches the merge.
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
for reject in "-shard 0/2" "-coordinator -shards 2"; do
    # shellcheck disable=SC2086  # $reject is intentionally word-split
    if "$BIN" characterize -app "$APP" -size small -trials "$TRIALS" \
        -seed "$SEED" -target-ci 0.05 $reject 2>"$TMP/reject.err"; then
        echo "shard_smoke: FAIL — -target-ci with $reject was accepted" >&2
        exit 1
    fi
    grep -q 'index space' "$TMP/reject.err" || {
        echo "shard_smoke: FAIL — rejection of -target-ci with $reject does not explain the conflict:" >&2
        cat "$TMP/reject.err" >&2
        exit 1
    }
done

echo "shard_smoke: running 2 shard worker processes" >&2
mkdir "$TMP/shards"
for i in 0 1; do
    "$BIN" characterize -app "$APP" -size small -trials "$TRIALS" \
        -seed "$SEED" -shard "$i/2" \
        -journal "$TMP/shards/shard-000$i-of-0002.jsonl" &
done
wait

for i in 0 1; do
    rec="$TMP/shards/shard-000$i-of-0002.status.json"
    if [ ! -s "$rec" ]; then
        echo "shard_smoke: FAIL — shard $i wrote no status record" >&2
        exit 1
    fi
    if ! grep -q '"running": false' "$rec" ||
        ! grep -q "\"journal\": \"shard-000$i-of-0002.jsonl\"" "$rec"; then
        echo "shard_smoke: FAIL — shard $i's last status record is not a finished one naming its journal:" >&2
        cat "$rec" >&2
        exit 1
    fi
done

echo "shard_smoke: merging the shard directory" >&2
"$BIN" merge -dir "$TMP/shards" -json >"$TMP/merged.json"

echo "shard_smoke: reading the final heartbeats back (hrmsim status)" >&2
"$BIN" status -json "$TMP/shards" >"$TMP/status.json"
"$BIN" status "$TMP/shards" >"$TMP/status.txt"
grep -q '(100%)' "$TMP/status.txt" || {
    echo "shard_smoke: FAIL — status view does not show 100%:" >&2
    cat "$TMP/status.txt" >&2
    exit 1
}

echo "shard_smoke: coordinator run (-coordinator -shards 2)" >&2
"$BIN" characterize -app "$APP" -size small -trials "$TRIALS" \
    -seed "$SEED" -coordinator -shards 2 -json >"$TMP/coordinated.json"

echo "shard_smoke: comparing merged results to baseline" >&2
python3 - "$TMP/baseline.json" "$TMP/merged.json" "$TMP/coordinated.json" \
    "$TMP/status.json" <<'PY'
import json, sys

docs = []
for path in sys.argv[1:]:
    with open(path) as f:
        docs.append((json.load(f), path))
(base, _), merged, coordinated, (status, status_path) = docs

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
for got, path in (merged, coordinated):
    res, want = got["result"], base["result"]
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

if failed:
    sys.exit(1)
print("shard_smoke: PASS — manual 2-shard merge and coordinator run both "
      "bit-identical to the single-process baseline, and the status "
      "heartbeats settle to the same counts")
PY
