#!/bin/sh
# Tier-1 smoke for the serializability harness: sweep seeds 1..5 through
# every merge policy and the fault-injected network path.  Run by the
# default test alias (see bench/dune); standalone:
#   sh bench/check_smoke.sh _build/default/bin/fdbsim.exe
set -e
FDBSIM="${1:-_build/default/bin/fdbsim.exe}"
BENCH="${2:-_build/default/bench/main.exe}"
case "$BENCH" in */*) ;; *) BENCH="./$BENCH" ;; esac
"$FDBSIM" check --seed 1 --sweep 5
"$FDBSIM" check --seed 6 --sweep 2 --clients 4 --txns 8 --relations 3
# Crash-failover smoke: 6 consecutive seeds cover each crash kind twice
# (mid-stream, mid-checkpoint, mid-replay).
"$FDBSIM" recover --seed 1 --sweep 6
# Planner smoke: the access-path sweep must run end to end on every backend
# (quick sizes; the JSON artifact goes to a scratch path).
"$BENCH" plan --quick -o "${TMPDIR:-/tmp}/BENCH_plan_smoke.json" > /dev/null
# Observability smoke: disabled tracing must add zero allocations to the
# hot path, and the trace exporter must produce a law-abiding Chrome trace.
"$BENCH" trace-overhead > /dev/null
"$FDBSIM" trace --seed 2 -o "${TMPDIR:-/tmp}/trace_smoke.json" > /dev/null
# Repair smoke: a short speculative sweep — parallel batches, traced inline
# run and sequential engine must agree, traces must satisfy every law.
"$FDBSIM" repair --seed 1 --sweep 3 --domains 2 > /dev/null
# Parallel smoke: the domain-pool executor against the deterministic engine
# and the sequential reference, plus its indexed legs (pooled and traced)
# with index coherence and every trace law asserted.
"$FDBSIM" par --seed 1 --sweep 5 --domains 2 > /dev/null
# Durability smoke: crash-restart recovery under every disk fault kind and
# checkpoint interval (2 seeds per cell).
"$FDBSIM" recover-disk --seed 1 --sweep 2 > /dev/null
# Shard smoke: the full default sweep is cheap (128 scenarios) — sharded
# executor, sequential engine, epoch-reordered replay and oracle must all
# agree, with shard_serializability holding on every trace.
"$FDBSIM" shard --seed 1 > /dev/null
# Index smoke: the indexed interpreter must agree with the plain one with
# the store coherent and the trace laws holding, and a default stats sweep
# must surface the indexed-planner decision counters and the maintenance
# histograms in its snapshot.
"$FDBSIM" index --seed 1 --sweep 3 > /dev/null
STATS=$("$FDBSIM" stats --seed 1 --sweep 8)
for metric in plan.index_probe plan.index_only plan.index_aggregate \
    plan.scan_fallback index.maintain_allocs; do
  echo "$STATS" | grep -q "$metric" || {
    echo "fdbsim stats is missing $metric" >&2
    exit 1
  }
done
# Script and log smoke: one piped script through run and explain, and a
# seeded demo log written then read back frame by frame by wal.
echo 'insert (1, "a") into R; insert (2, "b") into R; count R' \
  | "$FDBSIM" run | grep -q "counted 2"
echo 'select val from R where key >= 3 and key < 9' \
  | "$FDBSIM" explain | grep -q "range scan"
WALDIR="${TMPDIR:-/tmp}/fdbsim_wal_smoke.$$"
rm -rf "$WALDIR"
WALOUT=$("$FDBSIM" wal --dir "$WALDIR" --gen 3)
rm -rf "$WALDIR"
echo "$WALOUT" | grep -q "^recovery: .*, clean$"
# each delta frame lists its per-slot key-change counts
echo "$WALOUT" | grep -q " delta .*, key changes \[slot [0-9]*: [1-9][0-9]*\]$" || {
  echo "fdbsim wal does not print a delta's key changes:" >&2
  echo "$WALOUT" >&2
  exit 1
}
# CLI contract: a bad sweep parameter is a usage error — exit status 2 and
# a one-line "fdbsim <cmd>: ..." message on stderr.
ERR="${TMPDIR:-/tmp}/fdbsim_usage_smoke.$$"
expect_usage_error() {
  status=0
  "$FDBSIM" "$@" > /dev/null 2> "$ERR" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q "^fdbsim $1: " "$ERR"; then
    echo "fdbsim $*: expected exit 2 and 'fdbsim $1: ...', got exit $status:" >&2
    cat "$ERR" >&2
    exit 1
  fi
}
expect_usage_error repair --batch 0
expect_usage_error par --domains 0
expect_usage_error shard --shards 0
expect_usage_error recover-disk --sweep 0
expect_usage_error recover-disk --key-range 0
expect_usage_error check --clients 0
# --tuples above --key-range would silently cap each relation at the key
# range: every seeded sweep refuses it instead.
expect_usage_error check --tuples 13
expect_usage_error par --tuples 1000 --key-range 999
expect_usage_error index --tuples 13
expect_usage_error trace --tuples 13
expect_usage_error stats --tuples 13
rm -f "$ERR"
# Traffic smoke: the open-loop harness through every execution mode on two
# layouts — final states must agree (the command exits 1 on divergence) —
# and land the pinned digest: the seeded stream's final state may not move.
TRAFFIC=$("$FDBSIM" traffic -n 600 --tuples 2000)
echo "$TRAFFIC" | grep -q "^final digest 1502be3439f12d1d3c36eabe0a3471a2$" || {
  echo "fdbsim traffic -n 600 --tuples 2000 left an unexpected final state:" >&2
  echo "$TRAFFIC" >&2
  exit 1
}
