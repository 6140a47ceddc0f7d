#!/usr/bin/env bash
# Run the exact steps CI runs (.github/workflows/ci.yml and nightly.yml),
# locally.
#
#   scripts/ci_local.sh          # everything per-PR (lint job, then test job)
#   scripts/ci_local.sh lint     # just the lint job
#   scripts/ci_local.sh test     # just the test job
#   scripts/ci_local.sh nightly  # the nightly full 10^4-node scenario sweep
#
# Keep this file and the workflows in sync: a builder who passes this script
# must pass CI, and vice versa.

set -euo pipefail
cd "$(dirname "$0")/.."

lint() {
    echo "==> [lint] cargo fmt --all --check"
    cargo fmt --all --check

    echo "==> [lint] cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    echo '==> [lint] RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps'
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

test_job() {
    echo "==> [test] cargo build --release --workspace"
    cargo build --release --workspace

    echo "==> [test] cargo test -q --workspace"
    cargo test -q --workspace

    echo "==> [test] cargo build --benches --workspace"
    cargo build --benches --workspace

    echo "==> [test] bench schema + regression gates (incl. scenario + query-service slices)"
    regen="$(mktemp -d)"
    trap 'rm -rf "$regen"' EXIT
    (cd "$regen" && cargo run --release --manifest-path "$OLDPWD/Cargo.toml" -p nettrails-bench --bin report > /dev/null)
    python3 scripts/check_bench_schema.py BENCH_results.json "$regen/BENCH_results.json"

    echo "==> [test] ntbench tests (product loop vs its layered twin)"
    (cd benchmark && cargo test --release --offline)

    echo "==> [test] ntbench traced smoke: churn_as, 2 s"
    bash benchmark/run.sh --workload churn_as --seed 12 --seconds 2 --trace 1 > /dev/null

    echo "==> [test] ntbench traced smoke: snapshot_replay, 2 s"
    bash benchmark/run.sh --workload snapshot_replay --seed 12 --seconds 2 --trace 1 > /dev/null
}

nightly_job() {
    echo "==> [nightly] cargo build --release --workspace"
    cargo build --release --workspace

    echo "==> [nightly] full scenario + query-service sweep + gates (NT_SCENARIO_SCALE=full)"
    regen="$(mktemp -d)"
    trap 'rm -rf "$regen"' EXIT
    (cd "$regen" && NT_SCENARIO_SCALE=full cargo run --release --manifest-path "$OLDPWD/Cargo.toml" -p nettrails-bench --bin report)
    python3 scripts/check_bench_schema.py BENCH_results.json "$regen/BENCH_results.json"
}

case "${1:-all}" in
    lint) lint ;;
    test) test_job ;;
    nightly) nightly_job ;;
    all)
        lint
        test_job
        ;;
    *)
        echo "usage: $0 [lint|test|nightly|all]" >&2
        exit 2
        ;;
esac

echo "ci_local: all requested jobs passed"
