//! Side calls shared by every traced run, and the per-layer metric table.
//!
//! Every workload's traced run reports every per-layer metric. Layers on
//! the workload's own path are measured by the spans around its public
//! steps; the rest are measured by side calls at the workload's shapes
//! (its batch, its weights, its scene), so a metric always describes this
//! workload's inputs. Scan-only counts read 0 where no scan runs.

use crate::replay::{self, Forward, Weights, BWD, GEMM, PACK};
use crate::trace::{Layer, Tracer};
use crate::{metric, Metric};
use dcd_core::{nms, DrainageCrossingDetector};
use dcd_geodata::render::clip_patch_into;
use dcd_nn::loss::sigmoid;
use dcd_nn::{BBox, Detection, Sample, Sgd};
use dcd_tensor::{SeededRng, Tensor};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::hint::black_box;

/// The paper's training batch; off-path training steps use at most this.
pub const TRAIN_BATCH: usize = 20;
/// Patches per off-path clip side call, and side calls per metric at batch 1.
const SIDE_PATCHES: usize = 16;

/// Clips and normalizes the patches centred at `centres` into one batch,
/// in parallel across patches, as `scan_scene` does.
pub fn clip_batch(bands: &Tensor, centres: &[(usize, usize)], patch: usize) -> Tensor {
    let nb = bands.dims()[0];
    let sample = nb * patch * patch;
    let mut buf = vec![0.0f32; centres.len() * sample];
    buf.par_chunks_mut(sample)
        .zip(centres.par_iter())
        .for_each(|(dst, &(cx, cy))| {
            clip_patch_into(bands, cx, cy, patch, dst);
            for v in dst.iter_mut() {
                *v = (*v - 0.5) * 2.0;
            }
        });
    Tensor::from_vec([centres.len(), nb, patch, patch], buf).expect("clip batch")
}

/// Decodes replayed head outputs the way `DrainageCrossingDetector::
/// detect_tensor` does: sigmoid score, box as predicted, `None` below the
/// threshold.
pub fn decode(obj_logits: &Tensor, boxes: &Tensor, threshold: f32) -> Vec<Option<Detection>> {
    (0..obj_logits.numel())
        .map(|i| {
            let d = Detection {
                score: sigmoid(obj_logits.data()[i]),
                bbox: BBox::from_slice(&boxes.data()[i * 4..(i + 1) * 4]),
            };
            (d.score >= threshold).then_some(d)
        })
        .collect()
}

/// Which of the shared layers the workload's own path already measured.
pub struct OnPath {
    pub clip: bool,
    pub nms: bool,
    pub train_step: bool,
}

/// Results of the side calls that are not spans.
pub struct Side {
    pub conv2_speedup: f64,
    pub fc1_speedup: f64,
    pub peak_gflops: f64,
}

/// Runs the side calls for the batch `x`: replay fidelity, `forward_inference`,
/// `detect_tensor`, weight packing, per-patch GEMM, pooled-vs-sequential
/// speedups, backward kernels, the peak reference and whatever `on_path`
/// says the workload's path did not cover. Errors if a replay differs from
/// the model by a single bit.
pub fn side_calls(
    det: &mut DrainageCrossingDetector,
    w: &Weights,
    x: &Tensor,
    bands: &Tensor,
    on_path: OnPath,
    seed: u64,
    t: &mut Tracer,
) -> Result<Side, String> {
    let n = x.dims()[0];
    let reps = (SIDE_PATCHES / n).max(1);
    let fw: Forward = replay::forward(w, x, t);
    for _ in 0..reps {
        let out = t.span("nn.infer", n, |_| det.model_mut().forward_inference(x));
        if !fw.matches(&out) {
            return Err("replay differs from forward_inference on the side-call batch".into());
        }
        let d = t.span("core.detect", n, |_| det.detect_tensor(x));
        black_box(d);
    }
    for i in 0..3 {
        if !replay::conv_parts(w, &fw, i, t) {
            return Err(format!(
                "gemm_packed side call differs from conv{} output",
                i + 1
            ));
        }
    }
    let (conv2_speedup, fc1_speedup) = replay::pool_speedups(w, &fw);
    replay::backward(w, &fw, t);
    let peak_gflops = replay::peak_gflops();
    drop(fw);
    if !on_path.clip {
        let (h, wd) = (bands.dims()[1], bands.dims()[2]);
        let patch = x.dims()[2];
        let mut rng = SeededRng::new(seed);
        for _ in 0..reps {
            let centres: Vec<(usize, usize)> = (0..n)
                .map(|_| {
                    (
                        patch / 2 + rng.index(wd - patch),
                        patch / 2 + rng.index(h - patch),
                    )
                })
                .collect();
            let b = t.span("geodata.clip", n, |_| clip_batch(bands, &centres, patch));
            black_box(b);
        }
    }
    if !on_path.nms {
        // These workloads hand NMS nothing; time the call they would make.
        for _ in 0..SIDE_PATCHES {
            let kept = t.span("core.nms", 0, |_| nms(Vec::new(), 1, 1, 0.3));
            black_box(kept);
        }
    }
    if !on_path.train_step {
        // Runs last: it writes the weights.
        let m = n.min(TRAIN_BATCH);
        let samples: Vec<Sample> = (0..m).map(|i| Sample::negative(x.index_axis0(i))).collect();
        let batch: Vec<&Sample> = samples.iter().collect();
        let loss = crate::train::step(det, &batch, Sgd::paper(), t);
        if !loss.is_finite() {
            return Err("off-path training step produced a non-finite loss".into());
        }
    }
    Ok(Side {
        conv2_speedup,
        fc1_speedup,
        peak_gflops,
    })
}

/// Counts only a scan produces.
#[derive(Default)]
pub struct ScanCounts {
    pub tiles: usize,
    pub overlap: f64,
    pub nms_in: usize,
    pub nms_kept: usize,
}

/// Everything the per-layer table needs besides the spans.
pub struct Extra {
    pub patch: usize,
    pub side: Side,
    pub scan: ScanCounts,
    pub grow_events: u64,
    pub overhead_pct: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer(t: &Tracer, w: &Weights, extra: &Extra) -> Result<Vec<Metric>, String> {
    let layers = t.layers();
    let get = |name: &str| -> Result<Layer, String> {
        layers
            .get(name)
            .copied()
            .ok_or_else(|| format!("no span recorded for {name}"))
    };
    let peak = extra.side.peak_gflops;
    let mut out = Vec::new();
    for i in 0..3 {
        let c = format!("tensor.conv{}", i + 1);
        let us = get(&c)?.us_per_item();
        let side = extra.patch >> i;
        let gflops = w.conv_flops_per_patch(i, side, side) / (us * 1e3);
        out.push(metric(format!("{c}.us_per_patch"), us, "us"));
        out.push(metric(format!("{c}.gflops"), gflops, "GFLOP/s"));
        out.push(metric(format!("{c}.pct_peak"), 100.0 * gflops / peak, "%"));
        out.push(metric(
            format!("{c}.pack_us_per_patch"),
            get(PACK[i])?.us_per_item(),
            "us",
        ));
        out.push(metric(
            format!("{c}.gemm_us_per_patch"),
            get(GEMM[i])?.us_per_item(),
            "us",
        ));
        out.push(metric(
            format!("{c}.bwd_us_per_patch"),
            get(BWD[i])?.us_per_item(),
            "us",
        ));
    }
    for name in [
        "tensor.pool1",
        "tensor.pool2",
        "tensor.pool3",
        "tensor.spp",
        "tensor.heads",
    ] {
        out.push(metric(
            format!("{name}.us_per_patch"),
            get(name)?.us_per_item(),
            "us",
        ));
    }
    let fc1 = get("tensor.fc1")?;
    let (k, nf) = w.fc1_shape();
    out.push(metric("tensor.fc1.us_per_patch", fc1.us_per_item(), "us"));
    out.push(metric(
        "tensor.fc1.gflops",
        2.0 * (k * nf) as f64 * fc1.items as f64 / fc1.self_ns as f64,
        "GFLOP/s",
    ));
    // Computed from the weight size: every call streams all of fc1's weights.
    out.push(metric(
        "tensor.fc1.weight_gbps",
        4.0 * (k * nf) as f64 * fc1.calls as f64 / fc1.self_ns as f64,
        "GB/s",
    ));
    out.push(metric(
        "tensor.fc1.bwd_us_per_patch",
        get("tensor.fc1.bwd")?.us_per_item(),
        "us",
    ));
    out.push(metric(
        "tensor.conv2.pool_speedup",
        extra.side.conv2_speedup,
        "x",
    ));
    out.push(metric(
        "tensor.fc1.pool_speedup",
        extra.side.fc1_speedup,
        "x",
    ));
    out.push(metric("tensor.peak_gflops", peak, "GFLOP/s"));
    out.push(metric(
        "tensor.scratch.grow_events",
        extra.grow_events as f64,
        "count",
    ));
    for name in [
        "nn.infer",
        "nn.batch",
        "nn.forward",
        "nn.loss",
        "nn.backward",
    ] {
        out.push(metric(
            format!("{name}.us_per_patch"),
            get(name)?.us_per_item(),
            "us",
        ));
    }
    out.push(metric(
        "nn.sgd.ms_per_step",
        get("nn.sgd")?.s_per_call() * 1e3,
        "ms",
    ));
    out.push(metric(
        "geodata.clip.us_per_patch",
        get("geodata.clip")?.us_per_item(),
        "us",
    ));
    out.push(metric(
        "core.detect.us_per_patch",
        get("core.detect")?.us_per_item(),
        "us",
    ));
    out.push(metric("core.scan.tiles", extra.scan.tiles as f64, "count"));
    out.push(metric("core.scan.overlap", extra.scan.overlap, "ratio"));
    out.push(metric(
        "core.nms.ms",
        get("core.nms")?.s_per_call() * 1e3,
        "ms",
    ));
    out.push(metric("core.nms.in", extra.scan.nms_in as f64, "count"));
    out.push(metric("core.nms.kept", extra.scan.nms_kept as f64, "count"));
    out.push(metric("trace.coverage", t.coverage(), "ratio"));
    out.push(metric("trace.overhead_pct", extra.overhead_pct, "%"));
    Ok(out)
}

/// Writes the spans to `perfbench/out/trace-<workload>-<seed>.json`.
pub fn write_spans(t: &Tracer, workload: &str, seed: u64) -> Result<String, String> {
    let dir = crate::repo_root().join("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    std::fs::write(&path, t.to_json()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Per-name span counts, for the info line.
pub fn span_counts(t: &Tracer) -> String {
    let counts: BTreeMap<&str, u64> = t.layers().into_iter().map(|(k, l)| (k, l.calls)).collect();
    format!("{counts:?}")
}
