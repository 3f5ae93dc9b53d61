#!/usr/bin/env bash
# Reproduction drift check: re-runs every experiment binary whose table
# holds no wall-clock measurement and byte-compares its stdout with the
# committed table in results/. Each mismatch is named with the head of
# its diff, and the script exits 1 if there is any. The timing tables
# move from run to run, so they are listed as unchecked.
#
#   scripts/repro_check.sh      # about 80 s on 2 vCPUs after the build
#
# To accept a deliberate change to a table, regenerate it with
# `target/release/exp_<name> > results/<name>.txt` and update the numbers
# EXPERIMENTS.md quotes.
set -euo pipefail
cd "$(dirname "$0")/.."

TIMING=(f4_6_runtime_split f6_a_tpfg_scale f7_a_strod_scale t4_5_scalability)

cargo build --release -q -p lesm-bench --bins
bin_dir="${CARGO_TARGET_DIR:-target}/release"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

checked=0
mismatches=()
for src in crates/bench/src/bin/exp_*.rs; do
    name=$(basename "$src" .rs)
    name=${name#exp_}
    if [[ " ${TIMING[*]} " == *" $name "* ]]; then
        continue
    fi
    checked=$((checked + 1))
    if ! "$bin_dir/exp_$name" > "$out/$name.txt"; then
        echo "FAILED   exp_$name exited non-zero"
        mismatches+=("$name")
    elif ! cmp -s "$out/$name.txt" "results/$name.txt"; then
        echo "MISMATCH results/$name.txt (< committed, > exp_$name now):"
        diff "results/$name.txt" "$out/$name.txt" | head -n 12 || true
        mismatches+=("$name")
    fi
done

echo "unchecked timing tables: ${TIMING[*]}"
if ((${#mismatches[@]})); then
    echo "repro: ${#mismatches[@]} of $checked tables differ from results/: ${mismatches[*]}"
    exit 1
fi
echo "repro: all $checked tables match results/"
