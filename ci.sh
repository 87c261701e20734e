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

# perfbench/ is the repo benchmark, a workspace of its own that calls the
# GEMM entry points (gemm_bias_relu, gemm_packed, PackedLhs, gemm_at,
# gemm_bt) by name. Build it as the benchmark does, then run its traced
# patch-online workload: it exits non-zero unless the op-by-op replay equals
# forward_inference bit for bit, and its last line must report correct.
echo "== repo benchmark builds; traced patch-online replay is bit-identical =="
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
replay=$(cargo run --release -q --offline --locked --manifest-path perfbench/Cargo.toml -- \
    --workload patch-online --seed 1 --seconds 2 --trace 1)
tail -1 <<<"$replay" | grep -q '"correct": true'

# The scan shares the conv trunk between overlapping tiles and must stay
# exact: the traced scene-scan replays every tile patch-wise at paper width
# and reports correct only if its detections equal scan_scene's.
echo "== traced scene-scan: shared-trunk scan equals the patch-wise replay =="
scan=$(cargo run --release -q --offline --locked --manifest-path perfbench/Cargo.toml -- \
    --workload scene-scan --seed 1 --seconds 2 --trace 1)
tail -1 <<<"$scan" | grep -q '"correct": true'

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
