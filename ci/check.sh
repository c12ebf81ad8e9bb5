#!/usr/bin/env bash
# The repository's one gate: everything CI checks, runnable locally.
#
#   ci/check.sh fast   build, clippy, every test (debug), docs, repo guards
#   ci/check.sh full   fast, then the release test run, the long ignored
#                      tests, the engine loop, the bench, the experiment
#                      and example smokes and the repo benchmark
#
# `.github/workflows/ci.yml` only calls this script. Both modes leave
# `git status` as they found it; the reports CI uploads are written under
# target/check/.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=${1:-}
if [[ $# -ne 1 || ( $mode != fast && $mode != full ) ]]; then
    echo "usage: ci/check.sh fast|full" >&2
    exit 2
fi

step() { printf '\n==> %s\n' "$*"; }
fail() { echo "error: $*" >&2; exit 1; }

tree_before=$(git status --porcelain)

fast() {
    step "build (all targets)"
    cargo build --workspace --all-targets

    step "clippy"
    cargo clippy --workspace --all-targets -- \
        -D warnings -D clippy::undocumented_unsafe_blocks -D clippy::too_many_lines

    step "tests (debug)"
    cargo test --workspace

    step "docs"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

    # The suites' fixture apps and pin hashes live in crates/suite/src/lib.rs.
    step "one test kit"
    if grep -rnE '^(pub )?(struct (HistApp|ChainApp)\b|fn (fnv1a|fnv_words|mix)\b)' tests/; then
        fail "a suite under tests/ defines a test-kit item again (use prs_suite's)"
    fi

    # Membership plans, SLO rules and fitted profiles share one reader,
    # crates/insight/src/toml.rs; a `key = value` split or a comment cut
    # anywhere else is a second grammar growing back.
    step "one TOML reader"
    if grep -rnE "split_once\('='\)|strip_comment|(find|split|split_once)\('#'\)|'#' *(if|=>)" \
        crates/*/src | grep -v '^crates/insight/src/toml\.rs:'; then
        fail "TOML-style parsing outside crates/insight/src/toml.rs (use insight::toml)"
    fi

    step "ci.yml runs only this script"
    if grep -nE '^[[:space:]]*(- )?run:' .github/workflows/ci.yml \
        | grep -vE 'run: ci/check\.sh (fast|full)$'; then
        fail "every run: step in .github/workflows/ci.yml must be 'ci/check.sh fast|full'"
    fi
}

full() {
    step "tests (release)"
    cargo test --workspace --release

    step "long tests (release, ignored elsewhere)"
    cargo test -p prs-suite --release --test proptest_runtime calendar_queue -- --include-ignored
    cargo test -p prs-suite --release --test engine_determinism \
        thirty_three_thousand_node_job_completes -- --ignored

    step "engine suite, ten times over (release)"
    for _ in $(seq 1 10); do
        cargo test -p simtime --release
    done

    step "engine throughput bench"
    cargo bench -p prs-bench --bench engine_throughput

    step "experiment smoke (scaled down)"
    cargo build --release -p prs-bench
    cargo run --release -p prs-bench --bin fig3_roofline
    cargo run --release -p prs-bench --bin fig4_intensity
    PRS_SCALE=0.05 cargo run --release -p prs-bench --bin table3
    cargo run --release -p prs-bench --bin table5

    # Each example asserts its own correctness.
    step "examples (release)"
    for example in quickstart flow_cytometry matrix_pipeline signal_batch \
        scheduler_advisor timeline_view; do
        cargo run --release -p prs-suite --example "$example"
    done

    step "repo benchmark"
    cargo test --manifest-path benchmark/Cargo.toml
    bash benchmark/run.sh --seconds 3

    # cli_exit_codes pins these grids; here they are only written for CI
    # to upload.
    step "chaos reports for upload"
    local reports=target/check
    rm -rf "$reports"
    mkdir -p "$reports"
    cargo build --release -p prs-cli
    target/release/prs chaos --trials 32 --seed 7 --score-watch --record \
        --out "$reports/chaos_report.json" --watch-out "$reports/watch_score.json" \
        --record-out "$reports/chaos_records"
    target/release/prs chaos --churn --trials 16 --seed 7 --out "$reports/churn_report.json"
}

fast
if [[ $mode == full ]]; then
    full
fi

step "tree left as found"
if [[ $(git status --porcelain) != "$tree_before" ]]; then
    git status --porcelain >&2
    fail "the checks changed the working tree"
fi
echo "ci/check.sh $mode: ok"
