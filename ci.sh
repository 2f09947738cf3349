#!/usr/bin/env bash
# Offline CI gate: tier-1 verify + lints. No network access is assumed —
# the workspace has no external dependencies.
#
#   ./ci.sh          tier-1 (release build + full test suite) + picobench's
#                    correctness test + clippy + fmt check + rustdoc with
#                    warnings denied + the reduced simbench smoke gate
#   ./ci.sh --bench  additionally run the full simbench regression gate
#                    (--full: adds the 256-node sharded-engine speedup gate,
#                    the 1024/4096/16384/65536-node weak-scaling sweep with
#                    peak-memory reporting, the streaming-stat memory gate,
#                    and the flyweight node-model gate at 16384 nodes
#                    (≥4× less peak heap, ≥3× faster world construction
#                    than the eager per-node boot, bit-identical digests);
#                    slower — the ≥4096-node points run only in this
#                    nightly lane)

set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== workspace tests =="
cargo test -q --workspace

echo "== picobench correctness (digests, ranks_done, failed == 0) =="
cargo test --manifest-path picobench/Cargo.toml --offline -q

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --all --check

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== simbench smoke gate (queue speedup, flow/sink coalescing, incast oracle, clamped events) =="
cargo run --release -p pico-bench --bin simbench -- --smoke

if [[ "${1:-}" == "--bench" ]]; then
    echo "== simbench regression gate (nightly --full variant) =="
    cargo run --release -p pico-bench --bin simbench -- --full
    # Night-over-night trending: when the previous nightly artifact was
    # restored (results/BENCH_prev.json), fail on >10% regression in
    # throughput or gate-ratio metrics. First run passes with a notice.
    if [[ -f results/BENCH_prev.json ]]; then
        echo "== benchdiff vs previous nightly artifact =="
        cargo run --release -p pico-bench --bin benchdiff -- results/BENCH_prev.json
    else
        echo "(no results/BENCH_prev.json — skipping nightly trend diff)"
    fi
fi

echo "CI OK"
