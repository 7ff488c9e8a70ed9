#!/bin/sh
# metrics_smoke.sh — telemetry smoke test (make metrics-smoke).
#
# Starts epoc-serve with a persistent store and structured logging,
# runs a cold + warm compile in the default full-GRAPE mode, then
# checks the whole ISSUE-10 telemetry surface end to end:
#
#   1. /metrics parses under the strict text-format parser
#      (epoc-stats -promcheck) and carries the required families:
#      stage histograms, synth-cache counters, store counters, and
#      the queue gauges;
#   2. the stage histogram really is bucketed
#      (epoc_stage_seconds_bucket{stage=...,le=...});
#   3. every access-log line is JSON and carries the trace_id the
#      response header carried, and the cold compile's stage/qoc
#      "stage done" record carries that compile's trace_id;
#   4. the cold response's cache block counts pulse-library misses and
#      the warm one counts none (full mode counts both, like estimate);
#   5. epoc-stats diffs two /v1/stats snapshots and gates on them
#      (-fail-on synth_hit_rate=0,library_hit_rate=0 must pass: both
#      rates only rise).
#
# Requires: go, curl, python3.
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

say() { echo "metrics-smoke: $*"; }

say "building epoc-serve and epoc-stats"
go build -o "$workdir/epoc-serve" ./cmd/epoc-serve
go build -o "$workdir/epoc-stats" ./cmd/epoc-stats

"$workdir/epoc-serve" -addr localhost:0 -workers 2 -queue 8 \
    -store "$workdir/store" -log-level info \
    2>"$workdir/serve.log" &
server_pid=$!

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

# Default full-GRAPE mode: the store only harvests in its own
# namespace, and estimate-mode requests would bypass it.
req='{"circuit":"ghz","options":{"seed":1},"deadline_ms":120000}'

say "cold compile (full mode, store harvest)"
curl -sf -D "$workdir/cold.hdr" -o "$workdir/cold.json" \
    -H 'Content-Type: application/json' -d "$req" "$base/v1/compile"
cold_trace=$(sed -n 's/^[Ee]poc-[Tt]race-[Ii]d: *//p' "$workdir/cold.hdr" | tr -d '\r')
[ -n "$cold_trace" ] || { say "missing Epoc-Trace-Id response header"; exit 1; }

curl -sf -o "$workdir/stats_cold.json" "$base/v1/stats"

say "warm compile (cache + library hits)"
curl -sf -o "$workdir/warm.json" \
    -H 'Content-Type: application/json' -d "$req" "$base/v1/compile"
curl -sf -o "$workdir/stats_warm.json" "$base/v1/stats"

say "per-request pulse-library counts"
python3 - "$workdir/cold.json" "$workdir/warm.json" <<'EOF'
import json, sys
cold, warm = (json.load(open(p))["cache"] for p in sys.argv[1:3])
assert cold["library_misses"] > 0, "cold full-mode compile counted no library misses: %r" % cold
assert warm["library_misses"] == 0, "warm compile missed the pulse library: %r" % warm
print("metrics-smoke:   library misses cold %d, warm %d"
      % (cold["library_misses"], warm["library_misses"]))
EOF

say "scraping /metrics"
curl -sf -o "$workdir/scrape.prom" "$base/metrics"

say "strict-parsing the scrape (epoc-stats -promcheck)"
"$workdir/epoc-stats" -promcheck \
    -require epoc_stage_seconds,epoc_synthcache_hits_total,epoc_store_harvest_pulses_total,epoc_serve_queue_depth,epoc_serve_inflight,epoc_serve_requests_total,epoc_serve_compile_ms \
    "$workdir/scrape.prom"

grep -q 'epoc_stage_seconds_bucket{stage="qoc",le="' "$workdir/scrape.prom" \
    || { say "no bucketed stage histogram in the scrape"; exit 1; }

say "access-log / trace-header correlation"
python3 - "$workdir/serve.log" "$cold_trace" <<'EOF'
import json, sys
path, cold_trace = sys.argv[1], sys.argv[2]
records = []
for line in open(path):
    line = line.strip()
    if not line.startswith("{"):
        continue  # the listener banner and drain notices are plain text
    records.append(json.loads(line))
access = [r for r in records if r.get("msg") == "request"]
assert access, "no access-log records"
for r in access:
    assert r.get("trace_id"), "access record without trace_id: %r" % r
compiles = [r for r in access if r.get("path") == "/v1/compile"]
assert any(r["trace_id"] == cold_trace for r in compiles), \
    "no access record carries the cold compile's response trace ID"
for r in compiles:
    assert "queue_ms" in r and "compile_ms" in r, \
        "compile access record missing queue/compile split: %r" % r
stage_done = [r for r in records if r.get("msg") == "stage done"]
assert any(r.get("stage") == "stage/qoc" for r in stage_done), \
    "no stage-boundary records from the pipeline"
assert any(r.get("stage") == "stage/qoc" and r.get("trace_id") == cold_trace
           for r in stage_done), \
    "no stage/qoc \"stage done\" record carries the cold compile's response trace ID"
print("metrics-smoke:   %d access records, %d stage records, trace ids correlate"
      % (len(access), len(stage_done)))
EOF

say "run-diff gate over the two stats snapshots"
"$workdir/epoc-stats" -fail-on synth_hit_rate=0,library_hit_rate=0 \
    "$workdir/stats_cold.json" "$workdir/stats_warm.json"

say "graceful shutdown"
kill -TERM "$server_pid"
wait "$server_pid" || { say "server exited non-zero on SIGTERM"; exit 1; }
server_pid=""

say "PASS"
