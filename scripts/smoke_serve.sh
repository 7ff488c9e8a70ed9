#!/bin/sh
# smoke_serve.sh — end-to-end smoke test for epoc-serve (make smoke-serve).
#
# Builds the daemon, starts it on an ephemeral port, and drives the
# documented client workflow from SERVING.md over real HTTP:
#
#   1. cold compile  — POST /v1/compile returns a done envelope with a
#      manifest (config_fingerprint + metrics) and an Epoc-Trace-Id;
#   2. warm compile  — the identical request reports synth-cache hits
#      and re-synthesizes nothing;
#   3. progress      — GET /v1/compile/{id}/events replays the stream
#      and terminates with {"done":true};
#   4. observability — /v1/healthz, /v1/stats and /metrics agree;
#   5. shutdown      — SIGTERM drains and the process exits cleanly.
#
# Requires: go, curl, python3 (for JSON assertions).
set -eu

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    status=$?
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill -TERM "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
    fi
    if [ "$status" -ne 0 ]; then
        echo "--- server log ---" >&2
        cat "$workdir/serve.log" >&2 || true
    fi
    rm -rf "$workdir"
    exit "$status"
}
trap cleanup EXIT INT TERM

say() { echo "smoke-serve: $*"; }

say "building epoc-serve"
go build -o "$workdir/epoc-serve" ./cmd/epoc-serve

"$workdir/epoc-serve" -addr localhost:0 -workers 2 -queue 8 \
    2>"$workdir/serve.log" &
server_pid=$!

# The daemon logs its bound address; poll until it appears and answers.
base=""
i=0
while [ $i -lt 100 ]; do
    base=$(sed -n 's/.*listening on \(http:\/\/[^ ]*\).*/\1/p' "$workdir/serve.log")
    if [ -n "$base" ] && curl -sf "$base/v1/healthz" >/dev/null 2>&1; then
        break
    fi
    base=""
    i=$((i + 1))
    sleep 0.1
done
[ -n "$base" ] || { say "server never became healthy"; exit 1; }
say "server up at $base"

req='{"circuit":"ghz","options":{"mode":"estimate","seed":1},"deadline_ms":60000}'

say "cold compile"
curl -sf -D "$workdir/cold.hdr" -o "$workdir/cold.json" \
    -H 'Content-Type: application/json' -d "$req" "$base/v1/compile"
grep -qi '^epoc-trace-id:' "$workdir/cold.hdr" \
    || { say "missing Epoc-Trace-Id response header"; exit 1; }
python3 - "$workdir/cold.json" <<'EOF'
import json, sys
env = json.load(open(sys.argv[1]))
assert env["status"] == "done", env["status"]
assert env["trace_id"], "empty trace_id"
m = env["manifest"]
assert m["config_fingerprint"], "manifest missing config fingerprint"
assert m["metrics"]["fidelity"] > 0, "manifest missing fidelity metric"
assert env["cache"]["synth_misses"] > 0, "cold run should miss the synth cache"
print("smoke-serve:   cold ok: id=%s fidelity=%.5f" % (env["id"], m["metrics"]["fidelity"]))
EOF

say "warm compile (shared caches)"
curl -sf -o "$workdir/warm.json" \
    -H 'Content-Type: application/json' -d "$req" "$base/v1/compile"
warm_id=$(python3 - "$workdir/warm.json" "$workdir/cold.json" <<'EOF'
import json, sys
warm = json.load(open(sys.argv[1]))
cold = json.load(open(sys.argv[2]))
assert warm["cache"]["synth_hits"] > 0, "warm run saw no synth-cache hits"
assert warm["cache"]["synth_misses"] == 0, "warm run re-synthesized blocks"
assert warm["cache"]["library_hits"] > 0, "warm run saw no pulse-library hits"
assert warm["manifest"]["config_fingerprint"] == cold["manifest"]["config_fingerprint"], \
    "identical requests produced different config fingerprints"
print(warm["id"])
EOF
)
say "  warm ok: id=$warm_id"

say "progress stream"
curl -sf "$base/v1/compile/$warm_id/events" | python3 -c '
import json, sys
lines = [json.loads(l) for l in sys.stdin if l.strip()]
assert lines, "empty event stream"
assert lines[-1].get("done") and lines[-1].get("status") == "done", lines[-1]
print("smoke-serve:   %d events, terminal status done" % len(lines))
'

say "observability endpoints"
curl -sf "$base/v1/stats" | python3 -c '
import json, sys
stats = json.load(sys.stdin)
assert stats["counters"]["serve/completed"] >= 2, stats["counters"]
assert stats["cache"]["synth_hits"] >= 1, stats["cache"]
assert stats["circuits"], "no benchmark catalog"
'
curl -sf "$base/metrics" | python3 -c '
import sys
vals = [float(l.split()[-1]) for l in sys.stdin if l.startswith("epoc_serve_requests_total ")]
assert vals and vals[0] >= 2, vals
'

say "graceful shutdown"
kill -TERM "$server_pid"
wait "$server_pid" || { say "server exited non-zero on SIGTERM"; exit 1; }
server_pid=""
grep -q 'stopped' "$workdir/serve.log" || { say "no clean-stop log line"; exit 1; }

say "PASS"
