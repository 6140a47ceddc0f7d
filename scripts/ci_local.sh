#!/usr/bin/env bash
# Run the exact steps CI runs (.github/workflows/ci.yml), locally.
#
#   scripts/ci_local.sh          # everything (lint job, then test job)
#   scripts/ci_local.sh lint     # just the lint job
#   scripts/ci_local.sh test     # just the test job
#
# Keep this file and the workflow in sync: a builder who passes this script
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

    echo "==> [test] ntbench tests (product loop vs its layered twin)"
    (cd benchmark && cargo test --release --offline)

    echo "==> [test] ntbench traced smoke: churn_as, 2 s"
    bash benchmark/run.sh --workload churn_as --seed 12 --seconds 2 --trace 1 > /dev/null

    echo "==> [test] ntbench traced smoke: snapshot_replay, 2 s"
    bash benchmark/run.sh --workload snapshot_replay --seed 12 --seconds 2 --trace 1 > /dev/null

    echo "==> [test] ntbench traced smoke: query_storm, 2 s"
    bash benchmark/run.sh --workload query_storm --seed 12 --seconds 2 --trace 1 > /dev/null

    echo "==> [test] ntbench traced smoke: converge_as, 2 s"
    bash benchmark/run.sh --workload converge_as --seed 12 --seconds 2 --trace 1 > /dev/null

    echo "==> [test] ntbench traced smoke: churn_query_mixed, 2 s"
    bash benchmark/run.sh --workload churn_query_mixed --seed 12 --seconds 2 --trace 1 > /dev/null
}

case "${1:-all}" in
    lint) lint ;;
    test) test_job ;;
    all)
        lint
        test_job
        ;;
    *)
        echo "usage: $0 [lint|test|all]" >&2
        exit 2
        ;;
esac

echo "ci_local: all requested jobs passed"
