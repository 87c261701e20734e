#!/usr/bin/env bash
# Repo CI gate: formatting, lints, then the tier-1 build+test sweep.
# Run from the repo root. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -D warnings -D deprecated =="
# -D deprecated keeps in-repo code off the legacy dcd-profiler free
# functions: everything must go through ProfileReport.
cargo clippy --workspace --all-targets -- -D warnings -D deprecated

# --workspace: the crate tests (kernel oracles, op-list bit identity,
# checkpoint validation, IOS lowering) run here, not only the root package.
echo "== tier-1: cargo build --release && cargo test -q --workspace =="
cargo build --release
cargo test -q --workspace

# The rayon shim runs a real thread pool; the whole suite must also pass
# with the pool pinned sequential (RAYON_NUM_THREADS=1), and the parallel
# equivalence tests assert both modes produce bit-identical results.
echo "== tier-1 again, pool pinned sequential (RAYON_NUM_THREADS=1) =="
RAYON_NUM_THREADS=1 cargo test -q --workspace

echo "== kernel equivalence under a pinned-sequential pool =="
RAYON_NUM_THREADS=1 cargo test -q -p dcd-tensor --test parallel_equivalence

# The chaos scenarios must be bit-reproducible regardless of thread count:
# the serving acceptance suite runs under the default pool and pinned
# sequential, and both must see identical counts and breaker transitions.
echo "== chaos serving suite, default pool =="
cargo test -q --test serving
echo "== chaos serving suite, pool pinned sequential =="
RAYON_NUM_THREADS=1 cargo test -q --test serving

echo "== criterion benches compile =="
cargo bench --workspace --no-run

echo "== parallel kernel microbenchmark -> BENCH_parallel.json =="
cargo run --release -q -p dcd-bench --bin parallel

echo "== packed-vs-legacy GEMM microbenchmark -> BENCH_gemm.json =="
cargo run --release -q -p dcd-bench --bin gemm

echo "== observability overhead microbenchmark -> BENCH_obs.json =="
cargo run --release -q -p dcd-bench --bin obs

echo "== serving SLO benchmark -> BENCH_serve.json =="
cargo run --release -q -p dcd-bench --bin serve

echo "CI OK"
