#!/usr/bin/env bash
# Two-phase soak of the resolution service (see docs/SERVICE.md).
#
# Phase 1 — overload: a 500-vehicle fleet streams through a lossy,
# corrupting link at roughly twice what the deliberately tight server
# bounds can absorb, with stalled clients, malformed injection, and
# mid-run epoch resets; partway through, the server takes SIGTERM and
# must drain gracefully. The snapshot must prove the degradation was
# explicit: refusals counted, vehicles evicted under the memory budget,
# malformed input survived, exactly one drain.
#
# Phase 2 — clean restart: a fresh server under the same binary takes a
# paced, fault-free fleet. The snapshot must prove the failure paths
# stayed quiet — zero refusals, evictions, malformed, sheds — while
# queries resolved, repeated pairs warm-started, and the resolve-latency
# SLO never breached. Contexts grow to 192 m (24 rounds × 8 marks) so
# that pairs resolve, and then resolve again, well before the run ends.
#
# Usage: scripts/soak.sh [outdir]   (default: soak-out)
set -euo pipefail

out=${1:-soak-out}
mkdir -p "$out"
addr=127.0.0.1:7841

go build -o "$out/rups-serve" ./cmd/rups-serve
go build -o "$out/rups-load" ./cmd/rups-load
go build -o "$out/rups-promcheck" ./cmd/rups-promcheck

wait_ready() {
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/${addr%:*}/${addr#*:}") 2>/dev/null; then
      exec 3>&- 3<&- || true
      return 0
    fi
    sleep 0.1
  done
  echo "soak: server never came up on $addr" >&2
  return 1
}

echo "=== phase 1: overload + faults + mid-run SIGTERM ==="
"$out/rups-serve" -addr "$addr" -workers 4 \
  -queue-cap 64 -per-conn 8 -mem-budget 262144 \
  -metrics-snapshot "$out/soak-overload.prom" 2>"$out/server-overload.log" &
srv=$!
wait_ready

timeout 180 "$out/rups-load" -addr "$addr" \
  -vehicles 500 -rounds 30 -marks 6 -queries 2 -pace 0.05 \
  -loss 0.1 -burst 0.02 -reorder 0.1 -dup 0.05 -corrupt 0.05 \
  -malformed-every 9 -stall-every 25 -reset-every 11 \
  -require-progress >"$out/load-overload.txt" &
load=$!

sleep 6
kill -TERM "$srv"
wait "$srv"
wait "$load"
cat "$out/load-overload.txt"

# Graceful degradation, proven from the server's own counters: traffic
# flowed, overload was refused (not dropped), the memory budget evicted,
# garbage was counted and survived, and the drain ran exactly once.
"$out/rups-promcheck" \
  -present rups_serve_drained_queries_total,rups_serve_queue_depth,rups_serve_resident_bytes,rups_serve_slow_disconnects_total \
  "$out/soak-overload.prom" \
  rups_serve_connections_total \
  rups_serve_queries_total \
  rups_serve_results_total \
  rups_serve_refused_total \
  rups_serve_evictions_total \
  rups_serve_malformed_total \
  rups_serve_resolve_seconds \
  rups_serve_drains_total

echo "=== phase 2: clean restart ==="
"$out/rups-serve" -addr "$addr" -workers 4 \
  -metrics-snapshot "$out/soak-clean.prom" 2>"$out/server-clean.log" &
srv=$!
wait_ready

timeout 180 "$out/rups-load" -addr "$addr" \
  -vehicles 150 -rounds 24 -marks 8 -queries 1 -pace 0.1 \
  -require-progress >"$out/load-clean.txt"
cat "$out/load-clean.txt"

kill -TERM "$srv"
wait "$srv"

# The clean phase is the control: the failure paths must stay at zero
# (instrumented but silent), queries must resolve, and the resolve-latency
# SLO must carry traffic without a single breach.
"$out/rups-promcheck" \
  -zero rups_serve_refused_total,rups_serve_evictions_total,rups_serve_malformed_total,rups_serve_queries_shed_total,rups_serve_slow_disconnects_total,rups_slo_resolve_latency_breaches_total \
  -slo resolve_latency \
  "$out/soak-clean.prom" \
  rups_serve_connections_total \
  rups_serve_queries_total \
  rups_serve_results_total \
  rups_serve_resolve_seconds \
  rups_serve_drains_total

echo "soak: both phases held"
