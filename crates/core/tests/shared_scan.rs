//! The shared-trunk scan against patch-wise inference, bit for bit.
//!
//! `scan_scene` convolves the scene once and recomputes only each tile's
//! padding ring. These tests check, over a grid of geometries, that every
//! tile's logits and boxes equal `forward_inference` on the clipped,
//! normalized tile to the bit, that the detections equal a patch-wise
//! scan's, and that the trunk's work counters are exact and steady.
//!
//! `scratch::grow_events` and the metrics registry are process-global, so
//! every test here serializes on one lock.

use dcd_core::{nms, scan_scene, DrainageCrossingDetector, ScanConfig, SceneDetection};
use dcd_geodata::render::clip_patch;
use dcd_nn::{SharedTrunk, SppNet, SppNetConfig};
use dcd_tensor::{scratch, SeededRng, Tensor};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// An untrained tiny 4-band model with the given first filter size.
fn model(conv1_kernel: usize, seed: u64) -> SppNet {
    let mut arch = SppNetConfig::tiny();
    arch.in_channels = 4;
    arch.conv1_kernel = conv1_kernel;
    SppNet::new(arch, &mut SeededRng::new(seed))
}

/// A `[4, h, w]` scene of reflectances in `[0, 1)`.
fn scene(h: usize, w: usize, seed: u64) -> Tensor {
    Tensor::uniform([4, h, w], 0.0, 1.0, &mut SeededRng::new(seed))
}

/// Tile centres in scan order: `patch / 2`, then every `stride` cells
/// while the centre stays below `len - patch / 2`.
fn centres(h: usize, w: usize, patch: usize, stride: usize) -> Vec<(usize, usize)> {
    let half = patch / 2;
    let axis = |len: usize| {
        std::iter::successors(Some(half), move |&c| {
            (c + stride < len - half).then_some(c + stride)
        })
    };
    axis(h).flat_map(|y| axis(w).map(move |x| (x, y))).collect()
}

fn normalized_patch(bands: &Tensor, (cx, cy): (usize, usize), patch: usize) -> Tensor {
    clip_patch(bands, cx, cy, patch).map(|v| (v - 0.5) * 2.0)
}

/// Checks the trunk + tail logits and boxes of every tile against
/// `forward_inference` on the clipped tiles, feeding the trunk in chunks of
/// `batch` tiles in its visiting order.
fn assert_tiles_bit_identical(model: &SppNet, bands: &Tensor, patch: usize, stride: usize) {
    let (h, w) = (bands.dims()[1], bands.dims()[2]);
    let centres = centres(h, w, patch, stride);
    let half = patch / 2;
    let origins = centres.iter().map(|&(x, y)| (x - half, y - half)).collect();
    let mut trunk =
        SharedTrunk::new(model, bands, patch, origins, |v| (v - 0.5) * 2.0).expect("geometry fits");
    let order = trunk.order();
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..centres.len()).collect::<Vec<_>>());
    let mut buf = Vec::new();
    for chunk in order.chunks(7) {
        let x = trunk.features(chunk, buf);
        let got = model.forward_from(model.tail_start(), &x);
        buf = x.into_vec();
        let tiles: Vec<Tensor> = chunk
            .iter()
            .map(|&t| normalized_patch(bands, centres[t], patch))
            .collect();
        let want = model.forward_inference(&Tensor::stack(&tiles));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let what = format!(
            "k={} patch={patch} stride={stride} scene={h}x{w} tiles={chunk:?}",
            model.config.conv1_kernel
        );
        assert_eq!(
            bits(&got.obj_logits),
            bits(&want.obj_logits),
            "logits, {what}"
        );
        assert_eq!(bits(&got.boxes), bits(&want.boxes), "boxes, {what}");
    }
}

#[test]
fn trunk_and_tail_match_patchwise_inference_bitwise() {
    let _guard = lock();
    for (ki, &kernel) in [1usize, 3, 5, 9].iter().enumerate() {
        let model = model(kernel, 10 + ki as u64);
        for (pi, &patch) in [32usize, 48, 63, 100].iter().enumerate() {
            for (si, &stride) in [1, 3, 6, 7, 12, 24, patch, patch + 5].iter().enumerate() {
                // Non-square scenes, and one exactly a patch in size.
                let (h, w) = match (pi + si) % 3 {
                    0 => (patch, patch),
                    1 => (patch + 11, patch + 5),
                    _ => (patch + 3, patch + 17),
                };
                let bands = scene(h, w, (ki * 100 + pi * 10 + si) as u64);
                assert_tiles_bit_identical(&model, &bands, patch, stride);
            }
        }
    }
}

/// The patch-wise oracle: clip, normalize and detect each tile, then NMS
/// and radius suppression, as the scan did before the trunk was shared.
fn patchwise_scan(
    det: &mut DrainageCrossingDetector,
    bands: &Tensor,
    config: &ScanConfig,
) -> Vec<SceneDetection> {
    let (h, w) = (bands.dims()[1], bands.dims()[2]);
    let ps = config.patch_size as f32;
    let mut raw = Vec::new();
    let centres = centres(h, w, config.patch_size, config.stride);
    for chunk in centres.chunks(config.batch_size) {
        let tiles: Vec<Tensor> = chunk
            .iter()
            .map(|&c| normalized_patch(bands, c, config.patch_size))
            .collect();
        for (d, &(cx, cy)) in det.detect_batch(&tiles).into_iter().zip(chunk) {
            let Some(d) = d else { continue };
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

#[test]
fn scan_equals_patchwise_scan_pooled_and_sequential() {
    let _guard = lock();
    rayon::ensure_threads(4);
    for (kernel, patch, stride, (h, w)) in [
        (3usize, 48usize, 6usize, (131usize, 97usize)),
        (5, 63, 7, (100, 140)),
        (9, 32, 3, (70, 58)),
    ] {
        let mut det = DrainageCrossingDetector::from_model(model(kernel, 3));
        det.threshold = 0.0; // fire everywhere: maximal NMS workload
        let bands = scene(h, w, 7);
        let config = ScanConfig::for_patch(patch)
            .with_stride(stride)
            .with_batch_size(8);
        let pooled = scan_scene(&mut det, &bands, &config);
        let sequential = rayon::force_sequential(|| scan_scene(&mut det, &bands, &config));
        let oracle = patchwise_scan(&mut det, &bands, &config);
        assert!(
            !oracle.is_empty(),
            "untrained scan at threshold 0 found nothing"
        );
        assert_eq!(pooled, oracle, "k={kernel} patch={patch} stride={stride}");
        assert_eq!(
            sequential, oracle,
            "k={kernel} patch={patch} stride={stride}"
        );
    }
}

#[test]
fn second_scan_grows_no_scratch() {
    let _guard = lock();
    let mut det = DrainageCrossingDetector::from_model(model(3, 4));
    det.threshold = 0.0;
    let bands = scene(150, 130, 8);
    let config = ScanConfig::for_patch(48).with_stride(5).with_batch_size(8);
    rayon::force_sequential(|| {
        let first = scan_scene(&mut det, &bands, &config);
        let before = scratch::grow_events();
        let second = scan_scene(&mut det, &bands, &config);
        assert_eq!(scratch::grow_events(), before, "second scan grew scratch");
        assert_eq!(first, second);
    });
}

/// The small-dataset fixture of the observability tests: a tiny 4-band
/// model, 48-px patches at stride 24 over a 256×256 scene (81 tiles).
fn counted_scan(det: &mut DrainageCrossingDetector, bands: &Tensor) -> u64 {
    let config = ScanConfig::for_patch(48).with_batch_size(8).with_stride(24);
    dcd_obs::reset_metrics();
    dcd_obs::set_enabled(true);
    scan_scene(det, bands, &config);
    dcd_obs::set_enabled(false);
    dcd_obs::snapshot().counter("scan.conv_macs").unwrap_or(0)
}

#[test]
fn conv_macs_counter_is_exact() {
    let _guard = lock();
    let mut det = DrainageCrossingDetector::from_model(model(3, 5));
    let bands = scene(256, 256, 9);
    // Per 48-px tile (channels 4/8/8, 3×3 kernels, so K = 36, 36, 72):
    // conv1 is 48×48 with clean cells 1..47, so its ring is 48² − 46² = 188
    // cells; conv2 (24×24, clean 2..22) has 24² − 20² = 176; conv3 (12×12,
    // clean 2..10) has 12² − 8² = 80. Ring MACs per tile:
    let ring = 4 * 36 * 188 + 8 * 36 * 176 + 8 * 72 * 80; // 123 840
                                                          // Tile origins 0, 24, …, 192 on both axes (81 tiles, one phase group).
                                                          // The shared maps cover the clean cells of all of them: conv1 columns
                                                          // 1..239 (238), conv2 2..118 (116), conv3 2..58 (56).
    let shared = 238 * 238 * 4 * 36 + 116 * 116 * 8 * 36 + 56 * 56 * 8 * 72;
    let expected = 81 * ring + shared;
    assert_eq!(expected, 23_869_440);
    // Patch-wise, every tile convolves in full: 81 × 580 608 MACs.
    assert!(expected < 81 * (48 * 48 * 4 * 36 + 24 * 24 * 8 * 36 + 12 * 12 * 8 * 72));

    let first = counted_scan(&mut det, &bands);
    assert_eq!(first, expected);
    assert_eq!(counted_scan(&mut det, &bands), expected);
    let sequential = rayon::force_sequential(|| counted_scan(&mut det, &bands));
    assert_eq!(sequential, expected);
}
