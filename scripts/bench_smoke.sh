#!/usr/bin/env bash
# Smoke-benchmark the parallel kernels and collect the timings as JSON.
#
# Runs the 1-vs-N-thread criterion variants (EM fit, whitened-tensor
# accumulation, power-method restarts) in fast mode and appends one JSON
# record per benchmark id to BENCH_par.json (or the path given as $1).
#
# Thread-count variants are bit-identical in output, so the only thing this
# measures is wall-clock scaling. Speedups require real cores: on a
# single-core machine the N-thread variants only add scheduling overhead.
set -euo pipefail
cd "$(dirname "$0")/.."

# Preflight: never burn bench time on a tree that violates the
# determinism contract — nondeterministic code makes cross-run bench
# comparisons meaningless. Runs the full pass set (token rules plus the
# call-graph taint / unsafe / wire-cast passes, DESIGN.md §11 + §16).
cargo run --release -q -p lesm-lint -- --root "$PWD" --workspace --passes all --timing

out="${1:-BENCH_par.json}"
em_out="${2:-BENCH_em_core.json}"
serve_out="${3:-BENCH_serve.json}"
strod_out="${4:-BENCH_strod.json}"
linalg_out="${5:-BENCH_linalg.json}"
replay_out="${6:-BENCH_replay.json}"
query_out="${7:-BENCH_query.json}"
update_out="${8:-BENCH_update.json}"
# cargo runs bench binaries from the package dir, so the JSON paths must be
# absolute for all records to land in one file.
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
case "$em_out" in /*) ;; *) em_out="$PWD/$em_out" ;; esac
case "$serve_out" in /*) ;; *) serve_out="$PWD/$serve_out" ;; esac
case "$strod_out" in /*) ;; *) strod_out="$PWD/$strod_out" ;; esac
case "$linalg_out" in /*) ;; *) linalg_out="$PWD/$linalg_out" ;; esac
case "$replay_out" in /*) ;; *) replay_out="$PWD/$replay_out" ;; esac
case "$query_out" in /*) ;; *) query_out="$PWD/$query_out" ;; esac
case "$update_out" in /*) ;; *) update_out="$PWD/$update_out" ;; esac
: > "$out"
export LESM_BENCH_FAST=1
export LESM_BENCH_JSON="$out"

cargo bench -p lesm-bench --bench bench_em -- fit_threads
cargo bench -p lesm-bench --bench bench_strod -- t3_accumulate
cargo bench -p lesm-bench --bench bench_strod -- power_threads

echo "wrote $(wc -l < "$out") bench records to $out"

# EM-core trajectory: every bench_em row (network sizes, weight modes,
# thread counts and the shared-EdgeState k-sweep) from one run. Full
# sampling, not fast mode: these medians are compared across PRs, and
# 3-sample medians are too fragile against host-level noise bursts.
: > "$em_out"
export LESM_BENCH_JSON="$em_out"
unset LESM_BENCH_FAST

cargo bench -p lesm-bench --bench bench_em

echo "wrote $(wc -l < "$em_out") bench records to $em_out"

# Serving-path numbers (DESIGN.md §9): cold load of a 50k-document v2
# artifact (zero-copy map) plus the cached-vs-uncached HTTP query latency medians through the in-process
# server. Full sampling for the same cross-PR comparability reason.
: > "$serve_out"
export LESM_BENCH_JSON="$serve_out"

cargo bench -p lesm-bench --bench bench_serve

echo "wrote $(wc -l < "$serve_out") bench records to $serve_out"

# Traffic replay (DESIGN.md §13): the deterministic endpoint mix against
# 1/2/4 local shards, p50/p99 per shard count, byte-identity asserted on
# every request. Full sampling; LESM_REPLAY_RATE scales the request count.
: > "$replay_out"
export LESM_BENCH_JSON="$replay_out"

cargo bench -p lesm-bench --bench bench_replay

echo "wrote $(wc -l < "$replay_out") bench records to $replay_out"

# Typed-query engine (DESIGN.md §14): the four program families
# (filter-only, 2-hop traverse, path enumeration, rank + cursor
# pagination) through `lesm_query::run_query` over the 50k-document
# replay model, byte-identity asserted on every iteration. Full sampling
# for cross-PR comparability.
: > "$query_out"
export LESM_BENCH_JSON="$query_out"

cargo bench -p lesm-bench --bench bench_query

echo "wrote $(wc -l < "$query_out") bench records to $query_out"

# Incremental mining (DESIGN.md §15): warm-started `lesm update` over a
# +1% document delta vs a cold full re-mine of the merged corpus, v2
# artifact byte-identity asserted on every iteration. Fast mode: the full
# re-mine baseline is deliberately expensive — that gap is the headline
# number (target: incremental >= 10x under the re-mine median).
: > "$update_out"
export LESM_BENCH_JSON="$update_out"
export LESM_BENCH_FAST=1

cargo bench -p lesm-bench --bench bench_update

echo "wrote $(wc -l < "$update_out") bench records to $update_out"
unset LESM_BENCH_FAST

# STROD trajectory: moment construction, the power method, and the
# end-to-end fit (the allocation-free kernel rewrite's numbers). Fast mode:
# the end-to-end fit over 3k documents is too slow for full sampling in a
# smoke pass.
: > "$strod_out"
export LESM_BENCH_JSON="$strod_out"
export LESM_BENCH_FAST=1

cargo bench -p lesm-bench --bench bench_strod

echo "wrote $(wc -l < "$strod_out") bench records to $strod_out"

# Dense-kernel trajectory: blocked matmul, transposed products, fused
# tmatvec, and the hoisted symmetric rank-one update vs its naive
# reference. Micro-kernels are cheap, so full sampling keeps the medians
# comparable across PRs.
: > "$linalg_out"
export LESM_BENCH_JSON="$linalg_out"
unset LESM_BENCH_FAST

cargo bench -p lesm-bench --bench bench_linalg

echo "wrote $(wc -l < "$linalg_out") bench records to $linalg_out"

# Informational regression tripwire: compare every fresh median against
# the committed baseline of the same file. Warns (never fails) on >20%
# regressions — see scripts/bench_check.sh.
for f in "$out" "$em_out" "$serve_out" "$strod_out" "$linalg_out" "$replay_out" "$query_out" "$update_out"; do
    scripts/bench_check.sh "$f"
done
