#!/usr/bin/env bash
# Serve daemon end-to-end benchmark: starts `dca serve` on a unix
# socket plus an ephemeral TCP port with `--jobs 2`, fans HTTP_N curl
# clients (TCP) and CLIENT_N `dca client` clients (unix socket) at the
# same figure, and asserts
#   (a) every report is byte-identical across listeners AND matches
#       what offline `dca figures` writes to results/sampling.md,
#   (b) one computation: the other HTTP_N + CLIENT_N - 1 requests
#       coalesced across listeners (dedup_hits),
#   (c) the daemon shuts down cleanly: exit 0, unix socket unlinked,
#       TCP port closed, no leaked lock files or .tmp-* temps,
#   (d) a restarted daemon over the same store serves the figure
#       warm — zero fast-forward instructions, zero recomputed
#       intervals, byte-identical report — and exits cleanly again.
# Records the fan-out and warm latencies in BENCH_serve_http.json.
#
# Usage: scripts/bench_serve_http.sh [output.json]
#   DCA_BIN   dca binary            (default target/release/dca)
#   SCALE     figure scale          (default paper)
#   CLIENT_N  dca client clients    (default 4)
#   HTTP_N    curl clients          (default 4)
set -euo pipefail

OUT="${1:-BENCH_serve_http.json}"
case "$OUT" in /*) ;; *) OUT="$PWD/$OUT" ;; esac
BIN="${DCA_BIN:-target/release/dca}"
case "$BIN" in /*) ;; *) BIN="$PWD/$BIN" ;; esac
SCALE="${SCALE:-paper}"
CLIENT_N="${CLIENT_N:-4}"
HTTP_N="${HTTP_N:-4}"
TMP="$(mktemp -d)"
SOCK="$TMP/dca.sock"
STORE="$TMP/store"
SRV=""
cleanup() {
  [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

[ -x "$BIN" ] || { echo "error: $BIN not built (cargo build --release -p dca-cli)" >&2; exit 1; }
command -v curl >/dev/null || { echo "error: curl not available" >&2; exit 1; }

# Starts the daemon on both listeners; parses the ephemeral TCP port
# from its stderr progress line ("serve: http on 127.0.0.1:PORT").
start_daemon() { # log
  "$BIN" serve --listen "$SOCK" --http-addr 127.0.0.1:0 --jobs 2 \
    --store-dir "$STORE" 2>"$1" &
  SRV=$!
  HTTP=""
  for _ in $(seq 1 100); do
    if [ -S "$SOCK" ]; then
      HTTP=$(grep -o 'serve: http on [0-9.:]*' "$1" | head -1 | awk '{print $4}')
      [ -n "$HTTP" ] && return
    fi
    sleep 0.1
  done
  echo "FAIL: daemon did not bind both listeners:" >&2
  cat "$1" >&2
  exit 1
}

# Waits for the daemon after a shutdown request; asserts exit 0, the
# socket unlinked, the TCP port closed and nothing leaked in the store.
check_clean_exit() {
  if ! wait "$SRV"; then
    echo "FAIL: daemon exited non-zero" >&2
    exit 1
  fi
  SRV=""
  if [ -e "$SOCK" ]; then
    echo "FAIL: daemon left its socket file behind" >&2
    exit 1
  fi
  if curl -s --max-time 2 "http://$HTTP/v1/ping" >/dev/null 2>&1; then
    echo "FAIL: TCP port still answering after shutdown" >&2
    exit 1
  fi
  LEAKED=$(find "$STORE" \( -name '*.lock' -o -name '.tmp-*' \) 2>/dev/null | wc -l)
  if [ "$LEAKED" -ne 0 ]; then
    echo "FAIL: $LEAKED leaked lock/temp file(s) after shutdown:" >&2
    find "$STORE" \( -name '*.lock' -o -name '.tmp-*' \) >&2
    exit 1
  fi
}

PAYLOAD='{"figure": "sampling", "args": ["--scale", "'"$SCALE"'"]}'

# One curl client: submit, poll to completion, fetch the report.
http_fetch() { # outfile
  local resp job
  resp=$(curl -sS -X POST -H 'content-type: application/json' \
    --data "$PAYLOAD" "http://$HTTP/v1/figures")
  job=$(printf '%s' "$resp" | grep -o '"job":[0-9]*' | grep -o '[0-9]*$')
  [ -n "$job" ] || { echo "FAIL: submit reply lacks a job id: $resp" >&2; return 1; }
  until curl -sS "http://$HTTP/v1/jobs/$job" | grep -q '"state":"done"'; do
    sleep 0.2
  done
  curl -sS -o "$1" "http://$HTTP/v1/jobs/$job/result"
}

# ---- fan-out: HTTP_N curl (TCP) + CLIENT_N dca client (unix) --------
start_daemon "$TMP/serve.log"
T0=$(date +%s%N)
# The first POST starts the job; everyone else must coalesce onto it.
http_fetch "$TMP/http-1.md" &
pids=("$!")
sleep 0.3
for i in $(seq 2 "$HTTP_N"); do
  http_fetch "$TMP/http-$i.md" &
  pids+=("$!")
done
for i in $(seq 1 "$CLIENT_N"); do
  "$BIN" client --addr "$SOCK" --figure sampling \
    --out "$TMP/client-$i.md" --json-out "$TMP/client-$i.json" -q \
    -- --scale "$SCALE" &
  pids+=("$!")
done
for p in "${pids[@]}"; do wait "$p"; done
T1=$(date +%s%N)

# (a) byte-identical across listeners...
for f in $(seq 1 "$CLIENT_N"); do
  if ! cmp -s "$TMP/http-1.md" "$TMP/client-$f.md"; then
    echo "FAIL: dca client $f's report differs from the curl one" >&2
    diff "$TMP/http-1.md" "$TMP/client-$f.md" >&2 || true
    exit 1
  fi
done
for h in $(seq 2 "$HTTP_N"); do
  if ! cmp -s "$TMP/http-1.md" "$TMP/http-$h.md"; then
    echo "FAIL: curl client $h's report differs from curl client 1's" >&2
    exit 1
  fi
done
# ...and identical to what offline `dca figures` writes.
mkdir -p "$TMP/offline"
(cd "$TMP/offline" && "$BIN" figures sampling --scale "$SCALE" --no-store -q \
  >/dev/null 2>"$TMP/offline.log")
if ! cmp -s "$TMP/http-1.md" "$TMP/offline/results/sampling.md"; then
  echo "FAIL: served report differs from offline dca figures output" >&2
  diff "$TMP/http-1.md" "$TMP/offline/results/sampling.md" >&2 || true
  exit 1
fi

# (b) one computation: everyone after the first coalesced.
WANT=$((HTTP_N + CLIENT_N - 1))
DEDUP=$("$BIN" client --addr "$SOCK" --stats \
  | grep -o '"dedup_hits": [0-9]*' | grep -o '[0-9]*$')
if [ "$DEDUP" -ne "$WANT" ]; then
  echo "FAIL: expected $WANT cross-listener dedup hits, got $DEDUP" >&2
  exit 1
fi

# (c) clean shutdown over TCP; nothing leaked.
curl -sS -X POST "http://$HTTP/v1/shutdown" >/dev/null
check_clean_exit

# ---- (d) warm: a restarted daemon serves from the store -------------
start_daemon "$TMP/serve-warm.log"
T2=$(date +%s%N)
"$BIN" client --addr "$SOCK" --figure sampling \
  --out "$TMP/warm.md" --json-out "$TMP/warm.json" -q \
  -- --scale "$SCALE"
T3=$(date +%s%N)
"$BIN" client --addr "$SOCK" --shutdown -q >/dev/null
check_clean_exit
for want in '"warm": true' '"ff_insts": 0' '"intervals_computed": 0'; do
  if ! grep -qF "$want" "$TMP/warm.json"; then
    echo "FAIL: warm request summary lacks $want:" >&2
    cat "$TMP/warm.json" >&2
    exit 1
  fi
done
if ! cmp -s "$TMP/http-1.md" "$TMP/warm.md"; then
  echo "FAIL: warm report differs from the cold one" >&2
  diff "$TMP/http-1.md" "$TMP/warm.md" >&2 || true
  exit 1
fi

read -r FAN_MS WARM_MS <<<"$(awk -v c=$((T1 - T0)) -v w=$((T3 - T2)) \
  'BEGIN { printf "%.1f %.1f", c / 1e6, w / 1e6 }')"
cat >"$OUT" <<JSON
{
  "benchmark": "dca serve --listen SOCK --http-addr --jobs 2 (figure sampling --scale $SCALE)",
  "unix_clients": $CLIENT_N,
  "tcp_clients": $HTTP_N,
  "jobs": 2,
  "fanout_latency_ms": $FAN_MS,
  "warm_latency_ms": $WARM_MS,
  "dedup_hits": $DEDUP,
  "reports_byte_identical": true,
  "matches_offline_figures": true,
  "warm_zero_recompute": true,
  "clean_shutdown": true
}
JSON
cat "$OUT"
echo "OK: $HTTP_N tcp + $CLIENT_N unix clients, $DEDUP coalesced, warm restart with zero recompute, clean shutdowns"
