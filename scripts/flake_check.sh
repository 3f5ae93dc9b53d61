#!/usr/bin/env bash
# Runs one test repeatedly in a debug build and prints how many runs
# passed, to tell a flaky test from a fixed one.
#
#   scripts/flake_check.sh <package> <test> <runs>
#
# <test> is an integration-test target of the package (for example
# `server_e2e` for crates/serve/tests/server_e2e.rs) or, when no target
# has that name, a test-name filter over all of the package's tests.
# Exits non-zero unless every run passed.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 3 ] || ! [[ "$3" =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: $0 <package> <test> <runs>" >&2
    exit 2
fi
package=$1
test=$2
runs=$3

# Build once, so every run times and races only the test itself.
if cargo test -q -p "$package" --test "$test" --no-run >/dev/null 2>&1; then
    args=(--test "$test")
else
    cargo test -q -p "$package" --no-run
    args=(-- "$test")
fi

passed=0
for run in $(seq 1 "$runs"); do
    if out=$(cargo test -q -p "$package" "${args[@]}" 2>&1); then
        passed=$((passed + 1))
    else
        echo "run $run failed:" >&2
        echo "$out" | grep -E "panicked|FAILED|left:|right:" | head -n 8 >&2
    fi
done
echo "$package $test: $passed/$runs passed"
[ "$passed" -eq "$runs" ]
