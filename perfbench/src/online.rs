//! `patch-online`: a closed loop with one client sending single patches
//! from the seeded dataset's test split through
//! `DrainageCrossingDetector::detect`, the next only after the reply. This
//! is the paper's batch-1 latency case; it bypasses tiling and NMS.

use crate::layers::{self, Extra, OnPath, ScanCounts};
use crate::replay::{self, Weights};
use crate::stats::{decision_f1, median};
use crate::trace::Tracer;
use crate::{detector, repeated_setup, timed_phase, Args, EndToEnd, Report};
use dcd_core::DrainageCrossingDetector;
use dcd_geodata::{render_bands, DatasetConfig, PatchDataset, Scene};
use dcd_nn::Detection;
use dcd_tensor::{scratch, SeededRng, Tensor};
use std::time::Instant;

/// Largest difference a reply may show against `detect_batch` over the same
/// patch, in score and in each box coordinate.
const REPLY_TOLERANCE: f32 = 1e-6;
/// Distinct patches the client cycles through (the test split, repeated
/// when the seed's split is smaller).
const PATCHES: usize = 32;
/// Requests the warm-up sends.
const WARM_REQUESTS: usize = 4;
/// Requests per side of the traced run (untraced reference, traced).
const TRACED_REQUESTS: usize = 24;

struct Setup {
    det: DrainageCrossingDetector,
    patches: Vec<Tensor>,
    scene: Scene,
}

fn setup(seed: u64) -> Setup {
    // Only the test split and the scene outlive this statement, and only
    // `PATCHES` test patches outlive the next: peak memory must not depend
    // on how many patches the seed's scene yields.
    let PatchDataset { test, scene, .. } = PatchDataset::generate(&DatasetConfig::default(), seed);
    assert!(!test.is_empty(), "seed {seed} produced no test patches");
    let patches: Vec<Tensor> = test
        .into_iter()
        .cycle()
        .take(PATCHES)
        .map(|s| s.image)
        .collect();
    let mut det = detector();
    for p in patches.iter().cycle().take(WARM_REQUESTS) {
        det.detect(p);
    }
    Setup {
        det,
        patches,
        scene,
    }
}

fn close(a: &Detection, b: &Detection) -> bool {
    (a.score - b.score).abs() <= REPLY_TOLERANCE
        && a.bbox
            .to_vec()
            .iter()
            .zip(b.bbox.to_vec())
            .all(|(x, y)| (x - y).abs() <= REPLY_TOLERANCE)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (mut s, setup_s) = repeated_setup(|| setup(args.seed));
    let n = s.patches.len();
    let timed = timed_phase(
        &mut s,
        args.seconds,
        |_| {},
        |s, k| s.det.detect(&s.patches[k % n]),
    )?;

    // Checks, outside the timed phase: every reply against `detect_batch`
    // over the same patches, and every score finite and in [0, 1].
    let mut reference: Vec<Option<Detection>> = Vec::new();
    let mut scores: Vec<f32> = Vec::new();
    for chunk in s.patches.chunks(32) {
        reference.extend(s.det.detect_batch(chunk));
        let x = Tensor::stack(chunk);
        scores.extend(s.det.model_mut().predict(&x).iter().map(|d| d.score));
    }
    let mut failed = 0u64;
    let (mut cand, mut refs, mut same) = (Vec::new(), Vec::new(), Vec::new());
    for (k, (reply, _)) in timed.ops.iter().enumerate() {
        let i = k % n;
        let score_ok = scores[i].is_finite() && (0.0..=1.0).contains(&scores[i]);
        let matched = match (reply, &reference[i]) {
            (Some(Some(a)), Some(b)) => close(a, b),
            (Some(None), None) => true,
            _ => false,
        };
        if !(score_ok && matched) {
            failed += 1;
        }
        cand.push(matches!(reply, Some(Some(_))));
        refs.push(reference[i].is_some());
        same.push(matched);
    }
    let agreement_f1 = decision_f1(&cand, &refs, |k| same[k]);
    let fired = reference.iter().filter(|d| d.is_some()).count();
    let info = vec![
        ("workload", "patch-online".to_string()),
        ("clients", "1 (closed loop)".to_string()),
        ("distinct_patches", s.patches.len().to_string()),
        ("patches_firing_at_default_threshold", fired.to_string()),
        ("reply_tolerance", REPLY_TOLERANCE.to_string()),
        ("timed_scratch_grow_events", timed.grow_events.to_string()),
    ];
    Ok(EndToEnd {
        setup_s,
        peak_rss_mb: timed.peak_rss_mb,
        attempted: timed.ops.len() as u64,
        failed,
        items_per_s: timed.ops.len() as f64 / timed.wall_s,
        latencies_s: timed.times(),
        agreement_f1,
    }
    .into_report(info))
}

pub fn traced(args: &Args) -> Result<Report, String> {
    let mut s = setup(args.seed);
    let mut t = Tracer::new();
    let threshold = s.det.threshold;
    let n_patches = s.patches.len();
    let mut untraced = Vec::new();
    let mut expected = Vec::new();
    for k in 0..TRACED_REQUESTS {
        let t0 = Instant::now();
        expected.push(s.det.detect(&s.patches[k % n_patches]));
        untraced.push(t0.elapsed().as_secs_f64());
    }

    let w = Weights::of(s.det.model_mut());
    let grow0 = scratch::grow_events();
    let mut traced = Vec::new();
    for (k, want) in expected.iter().enumerate() {
        let p = &s.patches[k % n_patches];
        let ((x, fw, reply), dt) = t.op("core.request", 1, |t| {
            let x = t.span("core.batch", 1, |_| Tensor::stack(std::slice::from_ref(p)));
            let fw = replay::forward(&w, &x, t);
            let reply = t.span("core.decode", 1, |_| {
                layers::decode(&fw.obj_logits, &fw.boxes, threshold)
            });
            (x, fw, reply)
        });
        traced.push(dt);
        let out = t.span("nn.infer", 1, |_| s.det.model_mut().forward_inference(&x));
        if !fw.matches(&out) {
            return Err(format!(
                "replay differs from forward_inference on request {k}"
            ));
        }
        if reply[0] != *want {
            return Err(format!("replayed reply differs from detect on request {k}"));
        }
    }
    let grow = scratch::grow_events() - grow0;
    let overhead = median(&traced).expect("requests") / median(&untraced).expect("requests") - 1.0;

    let x = Tensor::stack(&s.patches[..1]);
    let bands = render_bands(&s.scene, 0.03, &mut SeededRng::new(args.seed));
    let on_path = OnPath {
        clip: false,
        nms: false,
        train_step: false,
    };
    let side = layers::side_calls(&mut s.det, &w, &x, &bands, on_path, args.seed, &mut t)?;
    let extra = Extra {
        patch: x.dims()[2],
        side,
        scan: ScanCounts::default(),
        grow_events: grow,
        overhead_pct: overhead * 100.0,
    };
    let metrics = layers::per_layer(&t, &w, &extra)?;
    let path = layers::write_spans(&t, "patch-online", args.seed)?;
    Ok(Report {
        attempted: TRACED_REQUESTS as u64,
        failed: 0,
        metrics,
        info: vec![
            ("workload", "patch-online".to_string()),
            (
                "replay",
                "logits, boxes and replies bit-identical on every request".to_string(),
            ),
            ("spans", path),
            ("span_counts", layers::span_counts(&t)),
        ],
    })
}
