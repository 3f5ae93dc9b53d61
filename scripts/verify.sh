#!/usr/bin/env bash
# The full tier-1 gate, in dependency order: compile, lint (clippy and
# the workspace's own lesm-lint auditor, DESIGN.md §11), tests, then the
# benchmark harness. Everything must pass for a change to land.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release)"
cargo build --release

# Every target, tests and benches included: a lint in test code is still
# a lint.
echo "== clippy (all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# The crates rustfmt already leaves unchanged stay that way.
echo "== rustfmt (lesm-hier, lesm-net, lesm-par)"
cargo fmt --check -p lesm-hier -p lesm-net -p lesm-par

echo "== lesm-lint (--workspace, all passes)"
cargo run --release -q -p lesm-lint -- --root "$PWD" --workspace --timing

# Every package's tests: the workspace's default members are every
# package but lesm-bench, whose one test is the tier-2 wall-clock
# thread-scaling check, which fails whenever another process competes for
# the cores.
echo "== tests (workspace default members: all but lesm-bench)"
cargo test -q

# The differential and bit-identity suites of the mining, search and query
# crates again, under the optimizer users ship: the sign of a NaN result,
# for one, may differ between the debug and release profiles.
echo "== tests (release: lesm-core, lesm-hier, lesm-query)"
cargo test --release -q -p lesm-core -p lesm-hier -p lesm-query

# The artifact byte checks (recorded mine/update digests, the golden
# artifact and transcript, the v2 round trip and the update chain from
# decoded artifacts) under the same optimizer.
echo "== tests (release: artifact bytes)"
cargo test --release -q -p lesm --test mined_bytes
cargo test --release -q -p lesm-serve --test golden
cargo test --release -q -p lesm-serve --test v2_snapshot_tests

# The server's accept queue hands connections to workers through a
# condvar, and its shed, drain and fan-out tests race real sockets: run
# them again at release speed, where the timings differ from debug.
echo "== tests (release: server and sharded end to end)"
cargo test --release -q -p lesm-serve --test server_e2e --test sharded_e2e

# The paper reproductions: every non-timing experiment table must match
# its committed copy in results/ byte for byte.
echo "== reproduction tables (results/)"
scripts/repro_check.sh

# perfbench/ is a Cargo workspace of its own, so nothing above compiles
# it: an API deletion it depends on would otherwise only surface when the
# benchmark runs.
echo "== perfbench (build + --selftest)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- --selftest

echo "verify: all gates passed"
