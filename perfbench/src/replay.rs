//! Per-layer measurement of the tensor layer: a forward replay of the
//! model's ops through `dcd-tensor`'s public functions with the model's own
//! weights, plus side calls at the same shapes.
//!
//! The replay mirrors `SppNet::forward_inference` op for op (fused
//! conv+bias+ReLU, values-only pooling, SPP concat, fused FC+ReLU, heads),
//! so its logits and boxes must equal the model's bit for bit; callers check
//! that and fail the traced run otherwise.

use crate::trace::Tracer;
use dcd_nn::sppnet::DetectionOutput;
use dcd_nn::SppNet;
use dcd_tensor::{
    adaptive_max_pool2d_values, conv2d_backward, conv2d_relu, gemm_at, gemm_bias, gemm_bias_relu,
    gemm_bt, gemm_packed, max_pool2d_values, Epilogue, PackedLhs, Tensor, Trans,
};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

const CONV: [&str; 3] = ["tensor.conv1", "tensor.conv2", "tensor.conv3"];
const POOL: [&str; 3] = ["tensor.pool1", "tensor.pool2", "tensor.pool3"];
pub const PACK: [&str; 3] = [
    "tensor.conv1.pack",
    "tensor.conv2.pack",
    "tensor.conv3.pack",
];
pub const GEMM: [&str; 3] = [
    "tensor.conv1.gemm",
    "tensor.conv2.gemm",
    "tensor.conv3.gemm",
];
pub const BWD: [&str; 3] = ["tensor.conv1.bwd", "tensor.conv2.bwd", "tensor.conv3.bwd"];

/// A copy of the model's parameters, in `SppNet::params_mut` order.
pub struct Weights {
    conv: Vec<(Tensor, Tensor)>,
    fc1: (Tensor, Tensor),
    obj: (Tensor, Tensor),
    bbox: (Tensor, Tensor),
    levels: Vec<usize>,
}

impl Weights {
    pub fn of(model: &mut SppNet) -> Weights {
        assert!(
            model.config.fc2.is_none(),
            "replay covers the single-FC trunk"
        );
        let levels = model.config.spp_levels();
        let mut it = model.params_mut().into_iter().map(|p| p.value.clone());
        let mut pair = || {
            let w = it.next().expect("weight");
            (w, it.next().expect("bias"))
        };
        let conv = vec![pair(), pair(), pair()];
        let (fc1, obj, bbox) = (pair(), pair(), pair());
        Weights {
            conv,
            fc1,
            obj,
            bbox,
            levels,
        }
    }

    /// "Same" padding of conv layer `i` (stride 1, odd square kernel).
    fn pad(&self, i: usize) -> usize {
        self.conv[i].0.dims()[2] / 2
    }

    /// `(c_out, c_in·k·k)`: the GEMM shape of conv layer `i`'s weights.
    fn conv_mk(&self, i: usize) -> (usize, usize) {
        let d = self.conv[i].0.dims();
        (d[0], d[1] * d[2] * d[3])
    }

    /// FLOPs of conv layer `i` for one patch whose input is `[c, h, w]`.
    pub fn conv_flops_per_patch(&self, i: usize, h: usize, w: usize) -> f64 {
        let (m, k) = self.conv_mk(i);
        2.0 * (m * k * h * w) as f64
    }

    /// `(in, out)` features of `fc1`.
    pub fn fc1_shape(&self) -> (usize, usize) {
        let d = self.fc1.0.dims();
        (d[0], d[1])
    }
}

/// Every intermediate tensor of one replayed forward pass.
pub struct Forward {
    /// Inputs of conv1..conv3.
    pub conv_in: Vec<Tensor>,
    /// Outputs of conv1..conv3 (after the fused ReLU).
    pub conv_out: Vec<Tensor>,
    /// SPP features, the input of `fc1`.
    pub spp: Tensor,
    /// `fc1` output (after the fused ReLU).
    pub fc1: Tensor,
    pub obj_logits: Tensor,
    pub boxes: Tensor,
}

impl Forward {
    /// Whether the replay reproduced the model's output bit for bit.
    pub fn matches(&self, out: &DetectionOutput) -> bool {
        same_bits(self.obj_logits.data(), out.obj_logits.data())
            && same_bits(self.boxes.data(), out.boxes.data())
    }
}

/// Whether two buffers hold the same floats, bit for bit.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Replays the inference forward pass over `x` (`[N, C, H, W]`), one span
/// per op.
pub fn forward(w: &Weights, x: &Tensor, t: &mut Tracer) -> Forward {
    let n = x.dims()[0];
    let mut conv_in = Vec::with_capacity(3);
    let mut conv_out = Vec::with_capacity(3);
    let mut cur = x.clone();
    for i in 0..3 {
        let (wt, b) = &w.conv[i];
        let y = t.span(CONV[i], n, |_| conv2d_relu(&cur, wt, b, 1, w.pad(i)));
        let p = t.span(POOL[i], n, |_| max_pool2d_values(&y, 2, 2));
        conv_in.push(std::mem::replace(&mut cur, p));
        conv_out.push(y);
    }
    let spp = t.span("tensor.spp", n, |_| {
        let parts: Vec<Tensor> = w
            .levels
            .iter()
            .map(|&l| {
                let y = adaptive_max_pool2d_values(&cur, l);
                let f = y.numel() / n;
                y.reshape([n, f])
            })
            .collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::concat(&refs, 1)
    });
    let (k, nf) = w.fc1_shape();
    let fc1 = t.span("tensor.fc1", n, |_| {
        let y = gemm_bias_relu(spp.data(), w.fc1.0.data(), w.fc1.1.data(), n, k, nf);
        Tensor::from_vec([n, nf], y).expect("fc1 output")
    });
    let (obj_logits, boxes) = t.span("tensor.heads", n, |_| {
        let head = |(wt, b): &(Tensor, Tensor)| {
            let out = wt.dims()[1];
            let y = gemm_bias(fc1.data(), wt.data(), b.data(), n, nf, out);
            Tensor::from_vec([n, out], y).expect("head output")
        };
        (head(&w.obj).reshape([n]), head(&w.bbox))
    });
    Forward {
        conv_in,
        conv_out,
        spp,
        fc1,
        obj_logits,
        boxes,
    }
}

/// im2col of one `[c, h, w]` sample for a stride-1 "same" convolution, in
/// the layout `conv2d` feeds to `gemm_packed` (row `(ci·k + ki)·k + kj`,
/// column `oy·w + ox`).
fn im2col(x: &[f32], c: usize, h: usize, w: usize, k: usize, pad: usize, cols: &mut [f32]) {
    for ci in 0..c {
        for ki in 0..k {
            for kj in 0..k {
                let dst = &mut cols[((ci * k + ki) * k + kj) * h * w..][..h * w];
                for oy in 0..h {
                    let iy = (oy + ki) as isize - pad as isize;
                    for ox in 0..w {
                        let ix = (ox + kj) as isize - pad as isize;
                        dst[oy * w + ox] =
                            if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                0.0
                            } else {
                                x[(ci * h + iy as usize) * w + ix as usize]
                            };
                    }
                }
            }
        }
    }
}

/// Repetitions of each weight-packing side call.
const PACK_REPS: usize = 20;

/// Weight packing and the per-patch GEMM of conv layer `i`, as the side
/// calls `PackedLhs::pack` and `gemm_packed` at the layer's shape. Returns
/// whether every GEMM output equals the replayed conv output bit for bit.
pub fn conv_parts(w: &Weights, fw: &Forward, i: usize, t: &mut Tracer) -> bool {
    let (m, k) = w.conv_mk(i);
    let (wt, bias) = &w.conv[i];
    let input = &fw.conv_in[i];
    let (n, c, h, wd) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    for _ in 0..PACK_REPS {
        let pw = t.span(PACK[i], n, |_| PackedLhs::pack(wt.data(), Trans::No, m, k));
        black_box(&pw);
    }
    let pw = PackedLhs::pack(wt.data(), Trans::No, m, k);
    let (sample_in, ospatial) = (c * h * wd, h * wd);
    let mut cols = vec![0.0f32; k * ospatial];
    let mut out = vec![0.0f32; m * ospatial];
    let mut exact = true;
    for (j, x) in input.data().chunks(sample_in).enumerate() {
        im2col(x, c, h, wd, wt.dims()[2], w.pad(i), &mut cols);
        t.span(GEMM[i], 1, |_| {
            gemm_packed(
                &pw,
                &cols,
                Trans::No,
                &mut out,
                ospatial,
                Epilogue::BiasRowsRelu(bias.data()),
            )
        });
        exact &= same_bits(
            &out,
            &fw.conv_out[i].data()[j * m * ospatial..][..m * ospatial],
        );
    }
    exact
}

/// Backward kernels at the replayed shapes: `conv2d_backward` for each conv
/// layer and `gemm_at` + `gemm_bt` for `fc1`, with the forward outputs as
/// the incoming gradients.
pub fn backward(w: &Weights, fw: &Forward, t: &mut Tracer) {
    let n = fw.spp.dims()[0];
    for (i, name) in BWD.into_iter().enumerate() {
        let g = t.span(name, n, |_| {
            conv2d_backward(&fw.conv_in[i], &w.conv[i].0, &fw.conv_out[i], 1, w.pad(i))
        });
        black_box(&g);
    }
    let (k, nf) = w.fc1_shape();
    let g = t.span("tensor.fc1.bwd", n, |_| {
        let gw = gemm_at(fw.spp.data(), fw.fc1.data(), k, n, nf);
        let gx = gemm_bt(fw.fc1.data(), w.fc1.0.data(), n, nf, k);
        (gw, gx)
    });
    black_box(&g);
}

/// Rounds of each pooled-versus-sequential comparison.
const SPEEDUP_ROUNDS: usize = 3;

/// `(conv2, fc1)` time under `rayon::force_sequential` ÷ the same call on
/// the pool, medians over interleaved rounds.
pub fn pool_speedups(w: &Weights, fw: &Forward) -> (f64, f64) {
    let n = fw.spp.dims()[0];
    let (k, nf) = w.fc1_shape();
    let conv2 = || {
        black_box(conv2d_relu(
            &fw.conv_in[1],
            &w.conv[1].0,
            &w.conv[1].1,
            1,
            w.pad(1),
        ))
    };
    let fc1 = || {
        black_box(gemm_bias_relu(
            fw.spp.data(),
            w.fc1.0.data(),
            w.fc1.1.data(),
            n,
            k,
            nf,
        ))
    };
    (ratio(conv2), ratio(fc1))
}

fn ratio<R>(f: impl Fn() -> R) -> f64 {
    let time = |seq: bool| {
        let t0 = Instant::now();
        if seq {
            rayon::force_sequential(&f);
        } else {
            f();
        }
        t0.elapsed().as_secs_f64()
    };
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    for _ in 0..SPEEDUP_ROUNDS {
        seq.push(time(true));
        par.push(time(false));
    }
    let med = |v: &[f64]| crate::stats::median(v).expect("rounds");
    med(&seq) / med(&par)
}

/// Pool-wide peak of the GEMM micro-kernel, GFLOP/s: every pool worker
/// runs `gemm_packed` at the same time on its own problem whose per-tile
/// operands stay in L1 (a 6×256 `A` micro-panel and the one 256×16 `B`
/// panel). `m = 600` amortizes the per-call packing of `B`. Best of seven
/// rounds, since a peak is the fastest the machine ran.
pub fn peak_gflops() -> f64 {
    const M: usize = 600;
    const K: usize = 256;
    const N: usize = 16;
    const REPS: usize = 40;
    let a: Vec<f32> = (0..M * K).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
    let b: Vec<f32> = (0..K * N).map(|i| (i % 5) as f32 * 0.125 - 0.25).collect();
    let pa = PackedLhs::pack(&a, Trans::No, M, K);
    let workers = rayon::current_num_threads();
    let run = || {
        let t0 = Instant::now();
        (0..workers).into_par_iter().for_each(|_| {
            rayon::force_sequential(|| {
                let mut c = vec![0.0f32; M * N];
                for _ in 0..REPS {
                    gemm_packed(&pa, black_box(&b), Trans::No, &mut c, N, Epilogue::Store);
                    black_box(&mut c);
                }
            })
        });
        t0.elapsed().as_secs_f64()
    };
    run();
    let best = (0..7).map(|_| run()).fold(f64::INFINITY, f64::min);
    2.0 * (M * K * N * REPS * workers) as f64 / best / 1e9
}
