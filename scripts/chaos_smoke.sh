#!/bin/sh
# End-to-end smoke test of the chaos harness against a real kvserve
# process over real TCP (what the in-process tests cannot cover):
#
#   1. start a fresh SEC-DED kvserve,
#   2. run `hrmsim chaos -attach -strict` against it — the seeded op
#      stream over one connection, faults placed by the protocol's own
#      `inject soft` — and require a PASS verdict (enforced twice: -strict
#      makes the command itself exit non-zero on FAIL, and the envelope
#      check below re-verifies),
#   3. run the same seed and op counts self-hosted (`-ecc secded
#      -inject-mode random`, in-process through Dispatch) and require the
#      same verdict on every field but the wall-clock ones: one driver,
#      two transports,
#   4. drive the attached server with the op stream alone (`-injections
#      0`, default GET/SET mix) and require zero wrong values among its
#      kvload_* counters,
#   5. shut the server down.
#
# Ordering matters: the wrong-value oracle assumes the driver is the only
# writer since server start, so the chaos run (read-only,
# -read-fraction 1) goes first against the fresh server, and the last
# run's fresh oracle stays valid because the chaos run wrote nothing.
#
#   scripts/chaos_smoke.sh             # 16 injections over 8 000 ops, ~1 s
set -eu
cd "$(dirname "$0")/.."

SEED="${SEED:-7}"
TMP="$(mktemp -d)"
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/kvserve" ./cmd/kvserve
go build -o "$TMP/hrmsim" ./cmd/hrmsim

echo "chaos_smoke: starting kvserve (secded)" >&2
"$TMP/kvserve" -addr 127.0.0.1:0 -ecc secded -seed "$SEED" \
    2>"$TMP/kvserve.log" &
SRV_PID=$!

# The server logs its bound address; wait for the listen line.
ADDR=""
i=0
while [ $i -lt 50 ]; do
    ADDR="$(sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' "$TMP/kvserve.log" | head -1)"
    [ -n "$ADDR" ] && break
    kill -0 "$SRV_PID" 2>/dev/null || { cat "$TMP/kvserve.log" >&2; exit 1; }
    i=$((i + 1))
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "chaos_smoke: kvserve never reported its address" >&2
    cat "$TMP/kvserve.log" >&2
    exit 1
fi
echo "chaos_smoke: kvserve on $ADDR" >&2

echo "chaos_smoke: running hrmsim chaos -attach -strict" >&2
RUN="-read-fraction 1 -steady 2000 -chaos 4000 -recovery 2000 -injections 16 -seed $SEED -json"
# shellcheck disable=SC2086 # $RUN is a flag list
"$TMP/hrmsim" chaos -attach "$ADDR" $RUN -strict >"$TMP/chaos.json" || {
    echo "chaos_smoke: hrmsim chaos -strict exited non-zero" >&2
    cat "$TMP/chaos.json" >&2
    exit 1
}

echo "chaos_smoke: running the same op stream self-hosted" >&2
# shellcheck disable=SC2086
"$TMP/hrmsim" chaos -ecc secded -inject-mode random $RUN >"$TMP/self.json"

python3 - "$TMP/chaos.json" "$TMP/self.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    env = json.load(f)
with open(sys.argv[2]) as f:
    self_hosted = json.load(f)["result"]

def die(msg):
    print(f"chaos_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)

if env.get("schema_version") != 2 or env.get("tool") != "hrmsim":
    die(f"bad envelope header: {env.get('schema_version')}/{env.get('tool')}")
if env.get("command") != "chaos":
    die(f"command = {env.get('command')}")
v = env["result"]
if v.get("schema_version") != 2:
    die(f"verdict schema_version = {v.get('schema_version')}")
phases = [p["phase"] for p in v.get("phases", [])]
if phases != ["steady", "chaos", "recovery"]:
    die(f"phases = {phases}")
if not v.get("results"):
    die("no SLO results")
if not v.get("pass"):
    for r in v["results"]:
        if not r["pass"]:
            print(f"chaos_smoke:   {r['name']}/{r['phase']}: "
                  f"{r.get('reason', 'failed')}", file=sys.stderr)
    die("SEC-DED verdict is FAIL")
chaos_phase = v["phases"][1]
if chaos_phase["injections"] <= 0:
    die("no injections recorded in the chaos phase")
counters = env.get("metrics", {}).get("counters", {})
if counters.get("chaos_injections_total", 0) <= 0:
    die("chaos_injections_total missing from the metrics snapshot")
if counters.get("kvload_ops_total", 0) <= 0:
    die("kvload_ops_total missing from the metrics snapshot")
WALL = ("duration_ms", "wall_p50_us", "wall_p99_us")
def deterministic(verdict):
    return {**verdict, "phases": [{k: x for k, x in p.items() if k not in WALL}
                                  for p in verdict["phases"]]}
if deterministic(v) != deterministic(self_hosted):
    print(json.dumps(deterministic(v), sort_keys=True), file=sys.stderr)
    print(json.dumps(deterministic(self_hosted), sort_keys=True), file=sys.stderr)
    die("attached and self-hosted verdicts differ outside the wall-clock fields")
print(f"chaos_smoke: chaos verdict PASS "
      f"({len(v['results'])} objectives, "
      f"{chaos_phase['injections']} injections, "
      f"{counters['kvload_ops_total']} ops, equal to the self-hosted run)")
PY

echo "chaos_smoke: running the op stream alone against the same server" >&2
"$TMP/hrmsim" chaos -attach "$ADDR" -injections 0 -seed "$SEED" \
    -json >"$TMP/load.json"

python3 - "$TMP/load.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    env = json.load(f)

def die(msg):
    print(f"chaos_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)

if env.get("schema_version") != 2 or env.get("command") != "chaos":
    die(f"bad load envelope: {env.get('schema_version')}/{env.get('command')}")
c = env.get("metrics", {}).get("counters", {})
if c.get("kvload_ops_total", 0) <= 0 or c.get("kvload_sets_total", 0) <= 0:
    die("the op stream sent no GET/SET traffic")
if c.get("chaos_injections_total", 0) != 0:
    die(f"{c['chaos_injections_total']} injections in an -injections 0 run")
if c.get("kvload_wrong_values_total", 0) != 0:
    die(f"{c['kvload_wrong_values_total']} wrong values served by the SEC-DED node")
if c.get("kvload_errors_total", 0) != 0:
    die(f"{c['kvload_errors_total']} op errors against a healthy loopback server")
print(f"chaos_smoke: load PASS ({c['kvload_ops_total']} ops, 0 wrong values)")
PY

kill "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""
echo "chaos_smoke: PASS" >&2
