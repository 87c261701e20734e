//! Packed-vs-legacy GEMM microbenchmark at the SPP-Net layer shapes.
//!
//! Compares the packed register-blocked kernel against the retained legacy
//! axpy kernel (`gemm_legacy`) on the square 256³ problem, on the GEMMs
//! behind conv1, conv2 and fc1 of the original architecture at batch 1, 8
//! and 32, and on fc1 of the paper's final model (candidate2, 7680 → 4096)
//! at batch 1, 20 and 32 plus its training input gradient `∂y·Wᵀ`.
//! Convolution shapes run as repeated per-sample products sharing one
//! packed weight ([`PackedLhs`]), exactly as `conv2d` executes them.
//!
//! `legacy_ms` and `packed_ms` are taken under `rayon::force_sequential`,
//! so their ratio is a single-thread kernel improvement, not parallelism;
//! `pooled_ms` reruns the packed kernel on the default pool (`threads`
//! workers). Fully-connected rows also record `row_split_ms`: the same
//! product forced through a pre-packed left operand, i.e. the `MC`-row
//! split that products with `m` above the skinny crossover take — the
//! pair shows what the skinny driver buys at each batch size.
//!
//! Usage: `cargo run --release -p dcd-bench --bin gemm`
//! (writes `BENCH_gemm.json`)

use dcd_tensor::{
    gemm_bt, gemm_into, gemm_legacy, gemm_packed, Epilogue, PackedLhs, SeededRng, Trans,
};
use serde::Serialize;
use std::time::Instant;

/// One shape's timings, milliseconds (best of `REPS` runs).
#[derive(Debug, Serialize)]
struct KernelTiming {
    name: String,
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    legacy_ms: f64,
    packed_ms: f64,
    speedup: f64,
    pooled_ms: f64,
    /// Fully-connected rows only: the same product on the `MC`-row split.
    row_split_ms: Option<f64>,
}

/// The recorded artifact.
#[derive(Debug, Serialize)]
struct Report {
    /// Actual worker count of the (warmed) pool, used by `pooled_ms`; every
    /// other timing runs under `force_sequential`.
    threads: usize,
    mode: &'static str,
    kernels: Vec<KernelTiming>,
}

const REPS: usize = 5;

/// Best-of-REPS wall-clock of `f` on the current pool, milliseconds.
fn best_ms(mut f: impl FnMut()) -> f64 {
    f(); // warm-up (also warms the scratch pool)
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// [`best_ms`] with the pool pinned to the calling thread.
fn best_seq_ms(f: impl FnMut()) -> f64 {
    rayon::force_sequential(|| best_ms(f))
}

/// How a shape calls the kernel.
#[derive(Clone, Copy, PartialEq)]
enum Call {
    /// Conv: pack the shared left operand once per call, as `conv2d` does,
    /// and reuse it across the batch.
    SharedLhs,
    /// Fully-connected forward through the public entry point, which
    /// routes skinny products to the skinny driver.
    Fc,
    /// Fully-connected input gradient `∂y·Wᵀ` through `gemm_bt`, `b`
    /// stored `n×k`; the legacy baseline materializes the transpose first.
    FcBt,
}

/// Times `batch` back-to-back `m×k·k×n` products, packed vs legacy.
fn time_shape(name: &str, m: usize, k: usize, n: usize, batch: usize, call: Call) -> KernelTiming {
    let mut rng = SeededRng::new(0xD00D ^ (m * 31 + k * 7 + n) as u64);
    let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
    let bs: Vec<Vec<f32>> = (0..batch)
        .map(|_| (0..k * n).map(|_| rng.normal()).collect())
        .collect();
    let mut c = vec![0.0f32; m * n];

    let mut packed = || match call {
        Call::SharedLhs => {
            let pa = PackedLhs::pack(&a, Trans::No, m, k);
            for b in &bs {
                gemm_packed(&pa, b, Trans::No, &mut c, n, Epilogue::Store);
                std::hint::black_box(&mut c);
            }
        }
        Call::Fc => {
            for b in &bs {
                gemm_into(&a, b, &mut c, m, k, n);
                std::hint::black_box(&mut c);
            }
        }
        Call::FcBt => {
            for b in &bs {
                std::hint::black_box(gemm_bt(&a, b, m, k, n));
            }
        }
    };
    let packed_ms = best_seq_ms(&mut packed);
    let pooled_ms = best_ms(&mut packed);
    let tb = if call == Call::FcBt {
        Trans::Yes
    } else {
        Trans::No
    };
    let row_split_ms = (call != Call::SharedLhs).then(|| {
        best_ms(|| {
            for b in &bs {
                let pa = PackedLhs::pack(&a, Trans::No, m, k);
                gemm_packed(&pa, b, tb, &mut c, n, Epilogue::Store);
                std::hint::black_box(&mut c);
            }
        })
    });
    let legacy_ms = best_seq_ms(|| {
        for b in &bs {
            if call == Call::FcBt {
                let mut bt = vec![0.0f32; k * n];
                for (j, row) in b.chunks(k).enumerate() {
                    for (p, &v) in row.iter().enumerate() {
                        bt[p * n + j] = v;
                    }
                }
                std::hint::black_box(gemm_legacy(&a, &bt, m, k, n));
            } else {
                std::hint::black_box(gemm_legacy(&a, b, m, k, n));
            }
        }
    });
    let t = KernelTiming {
        name: name.to_string(),
        m,
        k,
        n,
        batch,
        legacy_ms,
        packed_ms,
        speedup: legacy_ms / packed_ms,
        pooled_ms,
        row_split_ms,
    };
    println!(
        "{:18} m={:5} k={:5} n={:6} b={:2}   legacy {:9.2} ms   packed {:9.2} ms   speedup {:.2}x   pooled {:9.2} ms{}",
        t.name,
        m,
        k,
        n,
        batch,
        t.legacy_ms,
        t.packed_ms,
        t.speedup,
        t.pooled_ms,
        t.row_split_ms
            .map_or(String::new(), |ms| format!("   row-split {ms:9.2} ms"))
    );
    t
}

fn main() {
    // Spin the pool up with a real parallel call before reading its size.
    let warm: f32 = {
        use rayon::prelude::*;
        vec![1.0f32; 1 << 15].par_iter().map(|&v| v * 2.0).sum()
    };
    std::hint::black_box(warm);
    let threads = rayon::current_num_threads();
    println!("pool threads: {threads} (legacy/packed forced single-thread)");

    let mut kernels = Vec::new();
    // Square problem at the fc-layer scale (acceptance shape #1).
    kernels.push(time_shape("gemm_256", 256, 256, 256, 1, Call::SharedLhs));
    // conv1 of the paper's net on a 100×100 patch: 4 bands, 3×3 kernel,
    // 64 filters → [64, 36] · [36, 10000] per sample.
    for &b in &[1usize, 8, 32] {
        let name = format!("conv1_b{b}");
        kernels.push(time_shape(&name, 64, 36, 10_000, b, Call::SharedLhs));
    }
    // conv2 on the post-pool1 50×50 map: [128, 576] · [576, 2500]
    // (acceptance shape #2).
    for &b in &[1usize, 8, 32] {
        let name = format!("conv2_b{b}");
        kernels.push(time_shape(&name, 128, 576, 2_500, b, Call::SharedLhs));
    }
    // fc1 of the original config: SPP features 256·21 = 5376 → 1024,
    // exercised the way `Linear::forward` calls it.
    for &b in &[1usize, 8, 32] {
        kernels.push(time_shape(
            &format!("fc1_b{b}"),
            b,
            5_376,
            1_024,
            1,
            Call::Fc,
        ));
    }
    // fc1 of candidate2, the paper's final model: SPP features 256·30 =
    // 7680 → 4096 at the online (1), training (20) and scan (32) batches,
    // and its training input gradient ∂y [20×4096] · Wᵀ (W stored 7680×4096).
    for &b in &[1usize, 20, 32] {
        let name = format!("fc1_wide_b{b}");
        kernels.push(time_shape(&name, b, 7_680, 4_096, 1, Call::Fc));
    }
    kernels.push(time_shape(
        "fc1_wide_grad_b20",
        20,
        4_096,
        7_680,
        1,
        Call::FcBt,
    ));

    let report = Report {
        threads,
        mode: "legacy_and_packed_single_thread_forced",
        kernels,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_gemm.json", json).expect("write BENCH_gemm.json");
    println!("wrote BENCH_gemm.json");
}
