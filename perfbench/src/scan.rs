//! `scene-scan`: `scan_scene` over one seeded rendered 256×256 scene at the
//! default stride (patch/8 = 12 px) and batch 32: 169 tiles. This is the
//! deployment mode; it is conv-bound, and every scene pixel is convolved
//! about 26 times, so it is where shared-feature scanning, patch clipping
//! and NMS show their effect.

use crate::layers::{self, clip_batch, Extra, OnPath, ScanCounts};
use crate::replay::{self, same_bits, Forward, Weights};
use crate::stats::{f1, median};
use crate::trace::Tracer;
use crate::{detector, repeated_setup, timed_phase, Args, EndToEnd, Report};
use dcd_core::{
    match_detections, nms, scan_scene, DrainageCrossingDetector, ScanConfig, SceneDetection,
};
use dcd_geodata::dataset::small_config;
use dcd_geodata::render::clip_patch;
use dcd_geodata::{generate_scene, render_bands};
use dcd_nn::Detection;
use dcd_tensor::{scratch, SeededRng, Tensor};
use std::time::Instant;

const PATCH: usize = 100;
/// Match tolerance, in cells, between the scan and the patch-wise oracle.
const MATCH_TOLERANCE: usize = 2;

struct Setup {
    det: DrainageCrossingDetector,
    bands: Tensor,
    config: ScanConfig,
}

fn setup(seed: u64) -> Setup {
    let mut rng = SeededRng::new(seed);
    let scene = generate_scene(&small_config().scene, &mut rng);
    let bands = render_bands(&scene, 0.03, &mut rng);
    let mut det = detector();
    let config = ScanConfig::for_patch(PATCH);
    // Warm-up: one full batch of tiles through the detector.
    let centres = tile_centres(&bands, &config);
    let x = clip_batch(
        &bands,
        &centres[..config.batch_size.min(centres.len())],
        PATCH,
    );
    det.detect_tensor(&x);
    Setup { det, bands, config }
}

fn hw(bands: &Tensor) -> (usize, usize) {
    (bands.dims()[1], bands.dims()[2])
}

/// Tile centres covering the raster interior at the configured stride, in
/// the order `scan_scene` visits them.
fn tile_centres(bands: &Tensor, config: &ScanConfig) -> Vec<(usize, usize)> {
    let (h, w) = hw(bands);
    let half = config.patch_size / 2;
    let axis = |len: usize| {
        let mut v = vec![half];
        while v[v.len() - 1] + config.stride < len - half {
            v.push(v[v.len() - 1] + config.stride);
        }
        v
    };
    let (xs, ys) = (axis(w), axis(h));
    ys.iter()
        .flat_map(|&y| xs.iter().map(move |&x| (x, y)))
        .collect()
}

/// Maps one batch's detections to raster coordinates, as `scan_scene` does.
fn to_scene(
    dets: &[Option<Detection>],
    chunk: &[(usize, usize)],
    (h, w): (usize, usize),
    raw: &mut Vec<SceneDetection>,
) {
    let ps = PATCH as f32;
    for (det, &(cx, cy)) in dets.iter().zip(chunk) {
        if let Some(d) = det {
            let x = (cx as f32 - ps / 2.0 + d.bbox.cx * ps).round();
            let y = (cy as f32 - ps / 2.0 + d.bbox.cy * ps).round();
            if x >= 0.0 && y >= 0.0 && (x as usize) < w && (y as usize) < h {
                raw.push(SceneDetection {
                    x: x as usize,
                    y: y as usize,
                    score: d.score,
                    w: (d.bbox.w * ps).max(1.0),
                    h: (d.bbox.h * ps).max(1.0),
                });
            }
        }
    }
}

/// NMS, then point suppression within the configured radius.
fn suppress(raw: Vec<SceneDetection>, bands: &Tensor, config: &ScanConfig) -> Vec<SceneDetection> {
    let (h, w) = hw(bands);
    let mut keep: Vec<SceneDetection> = Vec::new();
    for d in nms(raw, w, h, config.nms_iou) {
        if keep
            .iter()
            .all(|k| k.x.abs_diff(d.x).max(k.y.abs_diff(d.y)) > config.nms_radius)
        {
            keep.push(d);
        }
    }
    keep
}

/// The patch-wise oracle: `clip_patch` per tile, `detect_batch` per batch,
/// then NMS and radius suppression.
fn oracle(s: &mut Setup) -> Vec<SceneDetection> {
    let mut raw = Vec::new();
    for chunk in tile_centres(&s.bands, &s.config).chunks(s.config.batch_size) {
        let images: Vec<Tensor> = chunk
            .iter()
            .map(|&(cx, cy)| clip_patch(&s.bands, cx, cy, PATCH).map(|v| (v - 0.5) * 2.0))
            .collect();
        to_scene(&s.det.detect_batch(&images), chunk, hw(&s.bands), &mut raw);
    }
    suppress(raw, &s.bands, &s.config)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (mut s, setup_s) = repeated_setup(|| setup(args.seed));
    let tiles = tile_centres(&s.bands, &s.config).len();
    let timed = timed_phase(
        &mut s,
        args.seconds,
        |_| {},
        |s, _| scan_scene(&mut s.det, &s.bands, &s.config),
    )?;
    let scans = &timed.ops;

    // Checks, outside the timed phase: finite scores, identical repeats,
    // and agreement with the patch-wise oracle.
    let reference = scans.iter().find_map(|s| s.0.clone()).unwrap_or_default();
    let failed = scans
        .iter()
        .filter(|(r, _)| {
            !matches!(r, Some(d) if d.iter().all(|d| d.score.is_finite()) && *d == reference)
        })
        .count() as u64;
    let truth = oracle(&mut s);
    let points: Vec<(usize, usize)> = truth.iter().map(|d| (d.x, d.y)).collect();
    let (precision, recall) = match_detections(&reference, &points, MATCH_TOLERANCE);

    let times = timed.times();
    let (h, w) = hw(&s.bands);
    let info = vec![
        ("workload", "scene-scan".to_string()),
        (
            "scene",
            format!(
                "{w}x{h} px, stride {}, batch {}",
                s.config.stride, s.config.batch_size
            ),
        ),
        ("tiles", tiles.to_string()),
        ("detections", reference.len().to_string()),
        ("oracle_detections", truth.len().to_string()),
        ("match_tolerance_cells", MATCH_TOLERANCE.to_string()),
        ("timed_scratch_grow_events", timed.grow_events.to_string()),
    ];
    Ok(EndToEnd {
        setup_s,
        peak_rss_mb: timed.peak_rss_mb,
        attempted: scans.len() as u64,
        failed,
        items_per_s: tiles as f64 / median(&times).expect("scans"),
        latencies_s: times,
        agreement_f1: f1(precision, recall),
    }
    .into_report(info))
}

pub fn traced(args: &Args) -> Result<Report, String> {
    let mut s = setup(args.seed);
    let mut t = Tracer::new();
    let t0 = Instant::now();
    let expected = scan_scene(&mut s.det, &s.bands, &s.config);
    let untraced = t0.elapsed().as_secs_f64();

    let w = Weights::of(s.det.model_mut());
    let (threshold, dims) = (s.det.threshold, hw(&s.bands));
    let tiles = tile_centres(&s.bands, &s.config).len();
    let grow0 = scratch::grow_events();
    let ((kept, mut batches, nms_in), wall) = t.op("core.scan", tiles, |t| {
        let centres = t.span("core.scan.centres", 0, |_| {
            tile_centres(&s.bands, &s.config)
        });
        let mut raw = Vec::new();
        let mut batches = Vec::new();
        for chunk in centres.chunks(s.config.batch_size) {
            let x = t.span("geodata.clip", chunk.len(), |_| {
                clip_batch(&s.bands, chunk, PATCH)
            });
            let Forward {
                obj_logits, boxes, ..
            } = replay::forward(&w, &x, t);
            t.span("core.decode", chunk.len(), |_| {
                to_scene(
                    &layers::decode(&obj_logits, &boxes, threshold),
                    chunk,
                    dims,
                    &mut raw,
                )
            });
            batches.push((x, obj_logits, boxes));
        }
        let nms_in = raw.len();
        let kept = t.span("core.nms", nms_in, |_| suppress(raw, &s.bands, &s.config));
        (kept, batches, nms_in)
    });
    let grow = scratch::grow_events() - grow0;
    for (b, (x, obj, boxes)) in batches.iter().enumerate() {
        let out = t.span("nn.infer", x.dims()[0], |_| {
            s.det.model_mut().forward_inference(x)
        });
        if !(same_bits(obj.data(), out.obj_logits.data())
            && same_bits(boxes.data(), out.boxes.data()))
        {
            return Err(format!(
                "replay differs from forward_inference on batch {b}"
            ));
        }
    }
    if kept != expected {
        return Err("traced scan's detections differ from scan_scene's".into());
    }

    let x = batches.swap_remove(0).0;
    drop(batches);
    let on_path = OnPath {
        clip: true,
        nms: true,
        train_step: false,
    };
    let side = layers::side_calls(&mut s.det, &w, &x, &s.bands, on_path, args.seed, &mut t)?;
    let (h, wd) = dims;
    let extra = Extra {
        patch: PATCH,
        side,
        scan: ScanCounts {
            tiles,
            overlap: (tiles * PATCH * PATCH) as f64 / (h * wd) as f64,
            nms_in,
            nms_kept: kept.len(),
        },
        grow_events: grow,
        overhead_pct: (wall / untraced - 1.0) * 100.0,
    };
    let metrics = layers::per_layer(&t, &w, &extra)?;
    let path = layers::write_spans(&t, "scene-scan", args.seed)?;
    Ok(Report {
        attempted: 1,
        failed: 0,
        metrics,
        info: vec![
            ("workload", "scene-scan".to_string()),
            (
                "replay",
                "logits and boxes bit-identical on every batch; detections equal scan_scene's"
                    .to_string(),
            ),
            ("spans", path),
            ("span_counts", layers::span_counts(&t)),
        ],
    })
}
