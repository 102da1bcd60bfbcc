#!/usr/bin/env bash
# Observability overhead benchmark: runs `dca figures sampling` at
# paper scale with and without span tracing + metrics export, REPS
# times each against a fresh (cold) store directory, and asserts that
#   (a) the best instrumented wall-clock is within MAX_OVERHEAD_PCT of
#       the best baseline wall-clock,
#   (b) results/sampling.md is byte-identical between the two modes.
# The artefacts' validity (Chrome trace-event JSON, Prometheus text)
# is pinned by the `observability_artefacts_leave_reports_byte_identical`
# test of the dca-cli crate. Records everything in BENCH_obs.json.
#
# Usage: scripts/bench_obs.sh [output.json]
#   DCA_BIN           dca binary       (default target/release/dca)
#   SCALE             figures scale    (default paper)
#   REPS              runs per mode    (default 3; best-of is compared)
#   MAX_OVERHEAD_PCT  acceptance gate  (default 2)
#   EXTRA_ARGS        extra `dca figures` flags (e.g. --sample-period N to
#                     force sampling at non-paper scales)
set -euo pipefail

OUT="${1:-BENCH_obs.json}"
BIN="${DCA_BIN:-target/release/dca}"
SCALE="${SCALE:-paper}"
REPS="${REPS:-3}"
MAX_OVERHEAD_PCT="${MAX_OVERHEAD_PCT:-2}"
EXTRA_ARGS="${EXTRA_ARGS:-}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

[ -x "$BIN" ] || { echo "error: $BIN not built (cargo build --release -p dca-cli)" >&2; exit 1; }

# One cold sampled run; echoes its wall-clock in ns. $2.. are extra
# `dca figures` flags (the instrumented mode's --trace-out/--metrics-out).
run() { # label [extra flags...]
  local label="$1"; shift
  local store="$TMP/store-$label" t0 t1
  rm -rf "$store"
  t0=$(date +%s%N)
  # shellcheck disable=SC2086 — EXTRA_ARGS is intentionally word-split.
  "$BIN" figures sampling --scale "$SCALE" --store-dir "$store" $EXTRA_ARGS "$@" \
    >"$TMP/$label.out" 2>"$TMP/$label.err"
  t1=$(date +%s%N)
  cp results/sampling.md "$TMP/$label.md"
  echo $((t1 - t0))
}

BASE_BEST=""
OBS_BEST=""
for i in $(seq 1 "$REPS"); do
  b=$(run "base$i")
  o=$(run "obs$i" --trace-out "$TMP/trace$i.json" --metrics-out "$TMP/metrics$i.prom")
  if [ -z "$BASE_BEST" ] || [ "$b" -lt "$BASE_BEST" ]; then BASE_BEST=$b; fi
  if [ -z "$OBS_BEST" ] || [ "$o" -lt "$OBS_BEST" ]; then OBS_BEST=$o; fi
done

# (b) instrumentation must not perturb report bytes.
if ! cmp -s "$TMP/base1.md" "$TMP/obs1.md"; then
  echo "FAIL: results/sampling.md differs with tracing/metrics enabled" >&2
  diff "$TMP/base1.md" "$TMP/obs1.md" >&2 || true
  exit 1
fi

# (a) wall-clock overhead of the instrumented run.
read -r BASE_S OBS_S OVERHEAD OK <<<"$(awk -v b="$BASE_BEST" -v o="$OBS_BEST" -v m="$MAX_OVERHEAD_PCT" \
  'BEGIN { bs=b/1e9; os=o/1e9; ov=(os-bs)/(bs>0?bs:1e-9)*100; printf "%.3f %.3f %.2f %d", bs, os, ov, (ov<=m) }')"

TRACE_EVENTS=$(grep -c '"ph": "X"' "$TMP/trace1.json" || true)
cat >"$OUT" <<JSON
{
  "benchmark": "observability overhead (figures sampling --scale $SCALE, cold store, best of $REPS)",
  "baseline_secs": $BASE_S,
  "instrumented_secs": $OBS_S,
  "overhead_pct": $OVERHEAD,
  "max_overhead_pct": $MAX_OVERHEAD_PCT,
  "trace_span_events": $TRACE_EVENTS,
  "report_byte_identical": true
}
JSON
cat "$OUT"

if [ "$OK" != "1" ]; then
  echo "FAIL: instrumented run ${OVERHEAD}% slower (limit ${MAX_OVERHEAD_PCT}%)" >&2
  exit 1
fi
echo "OK: instrumentation overhead ${OVERHEAD}% (limit ${MAX_OVERHEAD_PCT}%), byte-identical report"
