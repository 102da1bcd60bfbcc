#!/usr/bin/env bash
# Cold-versus-warm-store benchmark of the sampling quartet: runs
# `dca figures sampling --scale paper` three times against the same
# store directory — cold (fresh directory), then twice warm — and
# records the cold/warm wall-clocks in BENCH_store.json.
#
# Asserts that the warm run (a) executed zero fast-forward
# instructions (`dca_ff_insts_total 0` in its --metrics-out), (b)
# produced a byte-identical results/sampling.md — including across the
# two back-to-back warm invocations (the continuous-warming paper run
# must be stable under a warm store) — and (c) was at least
# MIN_SPEEDUP× faster than the cold run.
#
# Usage: scripts/bench_store.sh [output.json]
#   DCA_BIN      dca binary           (default target/release/dca)
#   STORE_DIR    store directory      (default .dca-store-bench, wiped)
#   MIN_SPEEDUP  acceptance threshold (default 5)
set -euo pipefail

OUT="${1:-BENCH_store.json}"
BIN="${DCA_BIN:-target/release/dca}"
STORE_DIR="${STORE_DIR:-.dca-store-bench}"
MIN_SPEEDUP="${MIN_SPEEDUP:-5}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

[ -x "$BIN" ] || { echo "error: $BIN not built (cargo build --release -p dca-cli)" >&2; exit 1; }

rm -rf "$STORE_DIR"

run() { # label
  local label="$1" t0 t1
  t0=$(date +%s%N)
  "$BIN" figures sampling --scale paper --store-dir "$STORE_DIR" \
    --metrics-out "$TMP/$label.prom" >"$TMP/$label.out" 2>"$TMP/$label.err"
  t1=$(date +%s%N)
  cp results/sampling.md "$TMP/$label.md"
  echo $((t1 - t0))
}

# The fast-forward instructions one run executed, from its metrics.
ff_insts() { # label
  awk '$1 == "dca_ff_insts_total" { print $2 }' "$TMP/$1.prom"
}

COLD_NS=$(run cold)
WARM_NS=$(run warm)
WARM2_NS=$(run warm2)

# (b) byte-identical measurement report — cold vs warm, and across two
# back-to-back warm-store invocations.
if ! cmp -s "$TMP/cold.md" "$TMP/warm.md"; then
  echo "FAIL: results/sampling.md differs between cold and warm runs" >&2
  diff "$TMP/cold.md" "$TMP/warm.md" >&2 || true
  exit 1
fi
if ! cmp -s "$TMP/warm.md" "$TMP/warm2.md"; then
  echo "FAIL: results/sampling.md differs between back-to-back warm runs" >&2
  diff "$TMP/warm.md" "$TMP/warm2.md" >&2 || true
  exit 1
fi

# The store uses the sharded v3 layout: checkpoint streams under ck/,
# interval results under rs/, both populated by the runs.
for sub in ck rs; do
  n=$(find "$STORE_DIR/$sub" -type f 2>/dev/null | wc -l)
  if [ "$n" -eq 0 ]; then
    echo "FAIL: sharded store layout missing a populated $STORE_DIR/$sub/" >&2
    exit 1
  fi
done

# The report must carry the detached-vs-continuous warming transient
# (DESIGN.md §9).
if ! grep -q 'Warming transient' "$TMP/warm.md"; then
  echo "FAIL: results/sampling.md lacks the warming transient" >&2
  exit 1
fi

# (a) zero fast-forward instructions on the warm run.
COLD_FF=$(ff_insts cold)
WARM_FF=$(ff_insts warm)
if [ "$WARM_FF" != "0" ]; then
  echo "FAIL: warm run executed $WARM_FF fast-forward instructions (want 0)" >&2
  exit 1
fi

# (c) wall-clock speed-up.
read -r COLD_S WARM_S SPEEDUP OK <<<"$(awk -v c="$COLD_NS" -v w="$WARM_NS" -v m="$MIN_SPEEDUP" \
  'BEGIN { cs=c/1e9; ws=w/1e9; sp=cs/(ws>0?ws:1e-9); printf "%.3f %.3f %.1f %d", cs, ws, sp, (sp>=m) }')"

WARM2_S=$(awk -v w="$WARM2_NS" 'BEGIN { printf "%.3f", w/1e9 }')
cat >"$OUT" <<JSON
{
  "benchmark": "sampling quartet (dca figures sampling --scale paper)",
  "cold_secs": $COLD_S,
  "warm_secs": $WARM_S,
  "warm2_secs": $WARM2_S,
  "speedup_warm_vs_cold": $SPEEDUP,
  "min_speedup_required": $MIN_SPEEDUP,
  "cold_fast_forward_insts": $COLD_FF,
  "warm_fast_forward_insts": $WARM_FF,
  "report_byte_identical": true,
  "warm_runs_byte_identical": true
}
JSON
cat "$OUT"

if [ "$OK" != "1" ]; then
  echo "FAIL: warm-store speed-up ${SPEEDUP}x below required ${MIN_SPEEDUP}x" >&2
  exit 1
fi
echo "OK: warm store ${SPEEDUP}x faster, zero fast-forward instructions, byte-identical report"
