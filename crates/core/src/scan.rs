//! Whole-scene scanning: slide the detector across a full watershed raster
//! and return georeferenced crossing detections.
//!
//! This is the deployment mode the paper motivates ("a large volume of
//! inferences", §5.1): the detector was trained on 100×100 patches, and a
//! study area is scanned by tiling it with overlapping patches, batching
//! them through the CNN (at the batch size the pipeline selected), mapping
//! detections back to raster coordinates, and de-duplicating with
//! non-maximum suppression.
//!
//! The conv trunk is shared between the overlapping patches: a
//! [`SharedTrunk`] convolves the scene once and recomputes per patch only
//! the ring of cells its own zero padding reaches, so a scan returns
//! exactly what running the detector on each clipped patch would. For
//! 100-px patches at the default stride that is about a fifth of the
//! convolution work.

use crate::detector::DrainageCrossingDetector;
use crate::resilience::{ResilientRunner, RetryPolicy, RunHealth};
use dcd_gpusim::{DeviceSpec, FaultPlan, Gpu, GpuError};
use dcd_ios::{
    ios_schedule, lower_sppnet, sequential_schedule, ExecError, IosOptions, StageCostModel,
};
use dcd_nn::metrics::iou;
use dcd_nn::{BBox, Detection, SharedTrunk, TrunkError};
use dcd_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A detection in scene (raster) coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SceneDetection {
    /// Crossing x in raster cells.
    pub x: usize,
    /// Crossing y in raster cells.
    pub y: usize,
    /// Objectness score.
    pub score: f32,
    /// Box in raster cells `(w, h)`.
    pub w: f32,
    /// Box height in raster cells.
    pub h: f32,
}

impl SceneDetection {
    fn bbox(&self, scene_w: usize, scene_h: usize) -> BBox {
        BBox::new(
            self.x as f32 / scene_w as f32,
            self.y as f32 / scene_h as f32,
            self.w / scene_w as f32,
            self.h / scene_h as f32,
        )
    }
}

/// Scan parameters.
///
/// Non-exhaustive: construct with [`ScanConfig::for_patch`] and refine with
/// the `with_*` methods, so new fields (like the `obs` toggle) stop being
/// breaking changes.
#[non_exhaustive]
#[derive(Debug, Clone, Copy)]
pub struct ScanConfig {
    /// Patch side length fed to the detector (must match training).
    pub patch_size: usize,
    /// Tiling stride. The detector is trained on patches with the crossing
    /// *at the centre* (§3.2), so it only fires when a tile centre lands
    /// near a crossing — use a small stride (patch/8) for high recall and
    /// let NMS collapse the duplicates.
    pub stride: usize,
    /// Inference batch size (use the pipeline's optimal batch).
    pub batch_size: usize,
    /// NMS IoU threshold: detections overlapping more than this collapse
    /// onto the higher-scored one.
    pub nms_iou: f32,
    /// Point-suppression radius in cells: detections within this Chebyshev
    /// distance of a stronger one are dropped (crossings are point features;
    /// box IoU alone under-suppresses duplicate chains along roads).
    pub nms_radius: usize,
    /// Input normalization applied to each clipped patch (the dataset
    /// normalizes reflectance to `[-1, 1]`; scanning must match).
    pub normalize: bool,
    /// Enable host observability (`dcd-obs` spans/metrics) for the scan.
    /// One-way: scanning with `obs = true` turns recording on process-wide
    /// and leaves it on for the caller to drain.
    pub obs: bool,
}

impl ScanConfig {
    /// Defaults for a given patch size: eighth-patch stride, batch 32 (the
    /// paper's optimal), NMS at IoU 0.3, observability off.
    pub fn for_patch(patch_size: usize) -> Self {
        ScanConfig {
            patch_size,
            stride: (patch_size / 8).max(1),
            batch_size: 32,
            nms_iou: 0.3,
            nms_radius: (patch_size / 6).max(2),
            normalize: true,
            obs: false,
        }
    }

    /// Sets the tiling stride.
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Sets the inference batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the NMS IoU threshold.
    pub fn with_nms_iou(mut self, nms_iou: f32) -> Self {
        self.nms_iou = nms_iou;
        self
    }

    /// Sets the point-suppression radius.
    pub fn with_nms_radius(mut self, nms_radius: usize) -> Self {
        self.nms_radius = nms_radius;
        self
    }

    /// Sets patch normalization.
    pub fn with_normalize(mut self, normalize: bool) -> Self {
        self.normalize = normalize;
        self
    }

    /// Enables host observability for the scan.
    pub fn with_obs(mut self, obs: bool) -> Self {
        self.obs = obs;
        self
    }

    /// Checks that a scene of shape `dims` can be tiled: `[bands, H, W]`
    /// with both sides at least one patch, and a positive patch size and
    /// stride. Whether the patch suits the detector's network is checked
    /// when the scan plans its trunk.
    pub fn validate(&self, dims: &[usize]) -> Result<(), ScanError> {
        let &[_, h, w] = dims else {
            return Err(ScanError::SceneShape(dims.to_vec()));
        };
        if self.patch_size == 0 {
            return Err(ScanError::ZeroPatch);
        }
        if self.stride == 0 {
            return Err(ScanError::ZeroStride);
        }
        if h < self.patch_size || w < self.patch_size {
            return Err(ScanError::SceneTooSmall {
                h,
                w,
                patch: self.patch_size,
            });
        }
        Ok(())
    }
}

/// Greedy non-maximum suppression over scene detections.
///
/// Detections with a non-finite score (NaN/±∞ logits from a degenerate
/// model) are dropped up front with a warning instead of poisoning the sort:
/// one bad logit must not kill a whole-scene scan.
pub fn nms(
    dets: Vec<SceneDetection>,
    scene_w: usize,
    scene_h: usize,
    iou_threshold: f32,
) -> Vec<SceneDetection> {
    let total = dets.len();
    let mut dets: Vec<SceneDetection> = dets.into_iter().filter(|d| d.score.is_finite()).collect();
    let dropped = total - dets.len();
    if dropped > 0 {
        eprintln!("warning: nms dropped {dropped} detection(s) with non-finite scores");
    }
    dets.sort_by(|a, b| b.score.total_cmp(&a.score));
    let mut keep: Vec<SceneDetection> = Vec::new();
    // Each kept detection's bbox is reused by every later IoU test —
    // compute it once instead of once per O(n²) inner-loop probe.
    let mut keep_boxes: Vec<BBox> = Vec::new();
    for d in dets {
        let db = d.bbox(scene_w, scene_h);
        if keep_boxes.iter().all(|kb| iou(kb, &db) <= iou_threshold) {
            keep.push(d);
            keep_boxes.push(db);
        }
    }
    keep
}

/// Tile centres covering the raster interior at the configured stride.
fn tile_centers(w: usize, h: usize, config: &ScanConfig) -> Vec<(usize, usize)> {
    let half = config.patch_size / 2;
    let mut centers: Vec<(usize, usize)> = Vec::new();
    let mut cy = half;
    loop {
        let mut cx = half;
        loop {
            centers.push((cx, cy));
            if cx + config.stride > w - half - 1 {
                break;
            }
            cx += config.stride;
        }
        if cy + config.stride > h - half - 1 {
            break;
        }
        cy += config.stride;
    }
    centers
}

/// A planned scan: validated geometry, tile centres and the shared trunk.
struct Scan<'a> {
    detector: &'a DrainageCrossingDetector,
    trunk: SharedTrunk<'a>,
    centers: Vec<(usize, usize)>,
    /// Each tile's detection, in tile order.
    found: Vec<Option<SceneDetection>>,
    batch_buf: Vec<f32>,
    patch: usize,
    dims: (usize, usize),
}

impl<'a> Scan<'a> {
    fn new(
        detector: &'a DrainageCrossingDetector,
        bands: &'a Tensor,
        config: &ScanConfig,
    ) -> Result<Scan<'a>, ScanError> {
        config.validate(bands.dims())?;
        let (h, w) = (bands.dims()[1], bands.dims()[2]);
        let centers = tile_centers(w, h, config);
        let half = config.patch_size / 2;
        let origins = centers.iter().map(|&(x, y)| (x - half, y - half)).collect();
        let prep: fn(f32) -> f32 = if config.normalize {
            |v| (v - 0.5) * 2.0
        } else {
            |v| v
        };
        let trunk = SharedTrunk::new(detector.model(), bands, config.patch_size, origins, prep)
            .map_err(ScanError::Trunk)?;
        Ok(Scan {
            detector,
            trunk,
            found: vec![None; centers.len()],
            centers,
            batch_buf: Vec::new(),
            patch: config.patch_size,
            dims: (h, w),
        })
    }

    /// Runs the tiles `chunk` (indices into the centres) through the trunk
    /// and the detector's tail, recording their raster-space detections.
    fn detect_chunk(&mut self, chunk: &[usize]) {
        if chunk.is_empty() {
            return;
        }
        let _span = dcd_obs::span("scan.chunk", dcd_obs::Category::Scan);
        dcd_obs::counter!("scan.patches").add(chunk.len() as u64);
        let x = self
            .trunk
            .features(chunk, std::mem::take(&mut self.batch_buf));
        let tail = self.detector.model().tail_start();
        let dets = self.detector.detect_from(tail, &x);
        self.batch_buf = x.into_vec();
        for (det, &t) in dets.into_iter().zip(chunk) {
            self.found[t] = det.and_then(|d| self.to_scene(d, self.centers[t]));
        }
    }

    /// Maps a patch-normalized detection of the tile centred at `(cx, cy)`
    /// to raster coordinates; `None` if it falls outside the raster.
    fn to_scene(&self, d: Detection, (cx, cy): (usize, usize)) -> Option<SceneDetection> {
        let (h, w) = self.dims;
        let ps = self.patch as f32;
        let x = (cx as f32 - ps / 2.0 + d.bbox.cx * ps).round();
        let y = (cy as f32 - ps / 2.0 + d.bbox.cy * ps).round();
        (x >= 0.0 && y >= 0.0 && (x as usize) < w && (y as usize) < h).then(|| SceneDetection {
            x: x as usize,
            y: y as usize,
            score: d.score,
            w: (d.bbox.w * ps).max(1.0),
            h: (d.bbox.h * ps).max(1.0),
        })
    }

    /// NMS and point suppression over the detections, in tile order.
    fn finish(self, config: &ScanConfig) -> Vec<SceneDetection> {
        let (h, w) = self.dims;
        let raw = self.found.into_iter().flatten().collect();
        suppress_within_radius(nms(raw, w, h, config.nms_iou), config.nms_radius)
    }
}

/// Scans a rendered scene (`[bands, H, W]` tensor) with the detector.
///
/// Returns NMS-deduplicated detections in raster coordinates, sorted by
/// descending score: exactly those of running the detector on every
/// clipped (and normalized) tile, computed through a [`SharedTrunk`].
///
/// # Panics
/// With the [`ScanError`] message if `config` does not validate against
/// the scene ([`ScanConfig::validate`]) or the patch does not fit the
/// detector's network; [`scan_scene_resilient`] returns these errors.
pub fn scan_scene(
    detector: &mut DrainageCrossingDetector,
    bands: &Tensor,
    config: &ScanConfig,
) -> Vec<SceneDetection> {
    if config.obs {
        dcd_obs::set_enabled(true);
    }
    let _span = dcd_obs::span("scan.scene", dcd_obs::Category::Scan);
    let mut scan = Scan::new(detector, bands, config).unwrap_or_else(|e| panic!("{e}"));
    for chunk in scan.trunk.order().chunks(config.batch_size.max(1)) {
        scan.detect_chunk(chunk);
    }
    scan.finish(config)
}

/// Simulated-deployment parameters for [`scan_scene_resilient`].
///
/// Non-exhaustive: construct with [`SimScanConfig::new`] (or `default()`) and
/// refine with the `with_*` methods.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct SimScanConfig {
    /// The simulated device the scan deploys to.
    pub device: DeviceSpec,
    /// Faults injected into that device (use [`FaultPlan::none`] for a
    /// healthy deployment).
    pub fault_plan: FaultPlan,
    /// Retry/backoff/watchdog policy.
    pub retry: RetryPolicy,
    /// IOS pruning options for the optimized schedule.
    pub ios: IosOptions,
}

impl SimScanConfig {
    /// Healthy RTX A5500 deployment with default retry and IOS options.
    pub fn new() -> Self {
        SimScanConfig {
            device: DeviceSpec::rtx_a5500(),
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            ios: IosOptions::default(),
        }
    }

    /// Sets the simulated device.
    pub fn with_device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Sets the injected fault plan.
    pub fn with_fault_plan(mut self, fault_plan: FaultPlan) -> Self {
        self.fault_plan = fault_plan;
        self
    }

    /// Sets the retry/backoff/watchdog policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the IOS pruning options.
    pub fn with_ios(mut self, ios: IosOptions) -> Self {
        self.ios = ios;
        self
    }
}

impl Default for SimScanConfig {
    fn default() -> Self {
        SimScanConfig::new()
    }
}

/// A resilient scan's outcome: the detections plus how the deployment fared.
#[derive(Debug, Clone)]
pub struct ResilientScanReport {
    /// NMS-deduplicated detections (identical to [`scan_scene`]'s output
    /// whenever every tile eventually completed).
    pub detections: Vec<SceneDetection>,
    /// Faults seen and recovery actions taken.
    pub health: RunHealth,
    /// Inference batch size actually used (after any OOM degradation).
    pub batch: usize,
    /// Whether the scan fell back from the IOS schedule to the sequential
    /// baseline.
    pub fell_back: bool,
    /// Total simulated host time spent in (successful and failed) inference,
    /// ns.
    pub sim_ns: u64,
}

/// Why a scan could not run or complete.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanError {
    /// The scene is not a `[bands, H, W]` tensor; holds its dims.
    SceneShape(Vec<usize>),
    /// The patch size is zero.
    ZeroPatch,
    /// The tiling stride is zero.
    ZeroStride,
    /// The scene is smaller than one patch.
    SceneTooSmall {
        /// Scene height.
        h: usize,
        /// Scene width.
        w: usize,
        /// Patch side.
        patch: usize,
    },
    /// The scene or patch does not fit the detector's network.
    Trunk(TrunkError),
    /// The simulated deployment could not even be set up (model does not fit
    /// at batch 1, or a schedule failed validation).
    Setup(ExecError),
    /// A tile kept failing after retries *and* the sequential fallback.
    Exhausted {
        /// The error that ended the run.
        last: GpuError,
        /// Health counters up to the failure.
        health: RunHealth,
    },
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::SceneShape(dims) => {
                write!(f, "expected a [bands, H, W] scene, got dims {dims:?}")
            }
            ScanError::ZeroPatch => write!(f, "scan patch size must be positive"),
            ScanError::ZeroStride => write!(f, "scan stride must be positive"),
            ScanError::SceneTooSmall { h, w, patch } => {
                write!(f, "{h}x{w} scene is smaller than a {patch}-px patch")
            }
            ScanError::Trunk(e) => write!(f, "scan does not fit the model: {e}"),
            ScanError::Setup(e) => write!(f, "scan setup failed: {e}"),
            ScanError::Exhausted { last, .. } => {
                write!(f, "scan exhausted recovery options: {last}")
            }
        }
    }
}

impl std::error::Error for ScanError {}

/// [`scan_scene`] deployed on the fault-injected simulator.
///
/// Each chunk of tiles is "shipped" through one simulated inference before
/// its patches are scored, so injected faults gate progress: transient
/// failures are retried (with simulated backoff), VRAM pressure halves the
/// batch until the allocation fits, hangs are reset via watchdog, and a
/// schedule that keeps failing is swapped for the sequential baseline.
/// Because every tile is re-enqueued until its inference succeeds, the
/// detections are identical to a fault-free [`scan_scene`] whenever the scan
/// completes.
pub fn scan_scene_resilient(
    detector: &mut DrainageCrossingDetector,
    bands: &Tensor,
    config: &ScanConfig,
    sim: &SimScanConfig,
) -> Result<ResilientScanReport, ScanError> {
    if config.obs {
        dcd_obs::set_enabled(true);
    }
    let _span = dcd_obs::span("scan.scene", dcd_obs::Category::Scan);
    let mut scan = Scan::new(detector, bands, config)?;

    // Lower the detector's architecture and schedule it both ways.
    let graph = lower_sppnet(detector.config(), (config.patch_size, config.patch_size));
    let target_batch = config.batch_size.max(1);
    let mut cost = StageCostModel::new(&graph, sim.device.clone(), target_batch);
    let optimized = ios_schedule(&graph, &mut cost, sim.ios);
    let fallback = sequential_schedule(&graph);
    let mut gpu = Gpu::new(sim.device.clone());
    gpu.set_fault_plan(sim.fault_plan.clone());
    let mut runner =
        ResilientRunner::new(&graph, optimized, fallback, target_batch, gpu, sim.retry)
            .map_err(ScanError::Setup)?;

    // Work queue of tiles; each iteration takes at most the *current*
    // batch, so a degraded batch automatically re-chunks the remaining work.
    let mut queue: VecDeque<usize> = scan.trunk.order().into();
    let mut sim_ns = 0u64;
    let mut chunk: Vec<usize> = Vec::new();
    while !queue.is_empty() {
        chunk.clear();
        while chunk.len() < runner.batch() {
            match queue.pop_front() {
                Some(t) => chunk.push(t),
                None => break,
            }
        }
        match runner.run() {
            Ok(ns) => sim_ns += ns,
            Err(last) => {
                return Err(ScanError::Exhausted {
                    last,
                    health: runner.health,
                })
            }
        }
        scan.detect_chunk(&chunk);
    }
    Ok(ResilientScanReport {
        detections: scan.finish(config),
        health: runner.health,
        batch: runner.batch(),
        fell_back: runner.fell_back(),
        sim_ns,
    })
}

/// Keeps only the highest-scored detection within each `radius`-cell
/// neighbourhood (input must be score-sorted, as [`nms`] returns).
fn suppress_within_radius(dets: Vec<SceneDetection>, radius: usize) -> Vec<SceneDetection> {
    let mut keep: Vec<SceneDetection> = Vec::new();
    for d in dets {
        if keep
            .iter()
            .all(|k| k.x.abs_diff(d.x).max(k.y.abs_diff(d.y)) > radius)
        {
            keep.push(d);
        }
    }
    keep
}

/// Precision/recall of scene detections against ground-truth crossing
/// points, with a match tolerance in cells (a detection matches at most one
/// truth point and vice versa; greedy by score).
///
/// Conventions for empty inputs: an empty detection set has no false
/// positives, so precision is 1.0 (recall is still 0.0 when truths exist);
/// an empty truth set has no missable targets, so recall is 1.0.
pub fn match_detections(
    detections: &[SceneDetection],
    truths: &[(usize, usize)],
    tolerance: usize,
) -> (f32, f32) {
    let mut matched_truth = vec![false; truths.len()];
    let mut tp = 0usize;
    for d in detections {
        let mut best: Option<usize> = None;
        let mut best_d = usize::MAX;
        for (i, &(tx, ty)) in truths.iter().enumerate() {
            if matched_truth[i] {
                continue;
            }
            let dist = d.x.abs_diff(tx).max(d.y.abs_diff(ty));
            if dist <= tolerance && dist < best_d {
                best = Some(i);
                best_d = dist;
            }
        }
        if let Some(i) = best {
            matched_truth[i] = true;
            tp += 1;
        }
    }
    let precision = if detections.is_empty() {
        1.0
    } else {
        tp as f32 / detections.len() as f32
    };
    let recall = if truths.is_empty() {
        1.0
    } else {
        tp as f32 / truths.len() as f32
    };
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_geodata::dataset::small_config;
    use dcd_geodata::render::render_bands;
    use dcd_geodata::PatchDataset;
    use dcd_nn::{Sgd, SppNetConfig, TrainConfig};
    use dcd_tensor::SeededRng;

    fn det(x: usize, y: usize, score: f32, size: f32) -> SceneDetection {
        SceneDetection {
            x,
            y,
            score,
            w: size,
            h: size,
        }
    }

    #[test]
    fn nms_keeps_highest_of_overlapping_pair() {
        let dets = vec![det(50, 50, 0.9, 10.0), det(52, 51, 0.7, 10.0)];
        let kept = nms(dets, 200, 200, 0.3);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].score, 0.9);
    }

    #[test]
    fn nms_keeps_disjoint_detections() {
        let dets = vec![det(20, 20, 0.9, 10.0), det(150, 150, 0.8, 10.0)];
        let kept = nms(dets, 200, 200, 0.3);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn nms_orders_by_score() {
        let dets = vec![det(20, 20, 0.5, 8.0), det(150, 150, 0.95, 8.0)];
        let kept = nms(dets, 200, 200, 0.3);
        assert_eq!(kept[0].score, 0.95);
    }

    #[test]
    fn nms_drops_nan_scores_without_panicking() {
        // Regression: the old sort used partial_cmp().expect(), so one NaN
        // logit panicked the whole scan. NaN detections must be dropped and
        // the finite ones kept.
        let dets = vec![
            det(20, 20, f32::NAN, 8.0),
            det(150, 150, 0.8, 8.0),
            det(60, 60, f32::INFINITY, 8.0),
            det(100, 20, 0.4, 8.0),
        ];
        let kept = nms(dets, 200, 200, 0.3);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|d| d.score.is_finite()));
        assert_eq!(kept[0].score, 0.8);
        assert_eq!(kept[1].score, 0.4);
    }

    #[test]
    fn nms_all_nan_yields_empty() {
        let dets = vec![det(20, 20, f32::NAN, 8.0), det(30, 30, f32::NAN, 8.0)];
        assert!(nms(dets, 200, 200, 0.3).is_empty());
    }

    #[test]
    fn scan_survives_a_nan_producing_detector() {
        // A model whose weights are all NaN scores every patch as NaN. The
        // scan must complete (returning nothing), not panic in NMS.
        use dcd_nn::SppNet;
        let mut arch = SppNetConfig::tiny();
        arch.in_channels = 4;
        let mut model = SppNet::new(arch, &mut SeededRng::new(3));
        for p in model.params_mut() {
            p.value.map_inplace(|_| f32::NAN);
        }
        let mut detector = DrainageCrossingDetector::from_model(model);
        detector.threshold = f32::NEG_INFINITY;
        let cfg = small_config();
        let ds = PatchDataset::generate(&cfg, 11);
        let bands = render_bands(&ds.scene, 0.03, &mut SeededRng::new(9));
        let scan = ScanConfig::for_patch(48).with_batch_size(8).with_stride(24);
        let dets = scan_scene(&mut detector, &bands, &scan);
        assert!(dets.iter().all(|d| d.score.is_finite()));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        #[test]
        fn validation_rejects_or_bounds_the_tile_count(
            patch in 0usize..80,
            stride in 0usize..40,
            batch in 0usize..40,
            h in 0usize..200,
            w in 0usize..200,
        ) {
            let config = ScanConfig::for_patch(patch)
                .with_stride(stride)
                .with_batch_size(batch);
            match config.validate(&[4, h, w]) {
                Err(_) => proptest::prop_assert!(patch == 0 || stride == 0 || h < patch || w < patch),
                Ok(()) => {
                    let n = tile_centers(w, h, &config).len();
                    proptest::prop_assert!(n >= 1 && n <= (h / stride + 1) * (w / stride + 1));
                }
            }
        }
    }

    #[test]
    fn validation_names_what_is_wrong() {
        let config = ScanConfig::for_patch(48);
        assert_eq!(
            config.validate(&[4, 48]),
            Err(ScanError::SceneShape(vec![4, 48]))
        );
        assert_eq!(config.validate(&[4, 48, 48]), Ok(()));
        assert_eq!(
            config.validate(&[4, 47, 100]),
            Err(ScanError::SceneTooSmall {
                h: 47,
                w: 100,
                patch: 48
            })
        );
        assert_eq!(
            config.with_stride(0).validate(&[4, 48, 48]),
            Err(ScanError::ZeroStride)
        );
        assert_eq!(
            ScanConfig::for_patch(0).validate(&[4, 48, 48]),
            Err(ScanError::ZeroPatch)
        );
    }

    fn untrained_detector() -> DrainageCrossingDetector {
        use dcd_nn::SppNet;
        let mut arch = SppNetConfig::tiny();
        arch.in_channels = 4;
        DrainageCrossingDetector::from_model(SppNet::new(arch, &mut SeededRng::new(5)))
    }

    #[test]
    #[should_panic(expected = "scan stride must be positive")]
    fn scan_scene_panics_with_the_typed_message() {
        let bands = Tensor::zeros([4, 64, 64]);
        let scan = ScanConfig::for_patch(48).with_stride(0);
        scan_scene(&mut untrained_detector(), &bands, &scan);
    }

    #[test]
    fn resilient_scan_returns_input_errors() {
        let mut det = untrained_detector();
        let sim = SimScanConfig::new().with_device(DeviceSpec::test_gpu());
        let run = |det: &mut DrainageCrossingDetector, bands: &Tensor, scan: &ScanConfig| {
            scan_scene_resilient(det, bands, scan, &sim).err()
        };
        let scan = ScanConfig::for_patch(48);
        let bands = Tensor::zeros([4, 64, 64]);
        assert_eq!(
            run(&mut det, &bands, &scan.with_stride(0)),
            Some(ScanError::ZeroStride)
        );
        assert_eq!(
            run(&mut det, &Tensor::zeros([64, 64]), &scan),
            Some(ScanError::SceneShape(vec![64, 64]))
        );
        assert_eq!(
            run(&mut det, &Tensor::zeros([3, 64, 64]), &scan),
            Some(ScanError::Trunk(TrunkError::Channels {
                scene: 3,
                model: 4
            }))
        );
        assert_eq!(
            run(&mut det, &bands, &ScanConfig::for_patch(4)),
            Some(ScanError::Trunk(TrunkError::PatchTooSmall {
                patch: 4,
                op: "pool3"
            }))
        );
    }

    #[test]
    fn match_detections_empty_detections_has_perfect_precision() {
        // No detections means no false positives: precision 1.0, recall 0.0.
        let truths = vec![(50usize, 50usize)];
        let (p, r) = match_detections(&[], &truths, 5);
        assert_eq!(p, 1.0);
        assert_eq!(r, 0.0);
        // And no truths means nothing to miss: recall 1.0.
        let dets = vec![det(10, 10, 0.9, 8.0)];
        let (p, r) = match_detections(&dets, &[], 5);
        assert_eq!(p, 0.0);
        assert_eq!(r, 1.0);
    }

    #[test]
    fn match_detections_precision_recall() {
        let truths = vec![(50usize, 50usize), (100, 100)];
        // One hit, one miss, one false positive.
        let dets = vec![det(52, 49, 0.9, 8.0), det(10, 10, 0.8, 8.0)];
        let (p, r) = match_detections(&dets, &truths, 5);
        assert!((p - 0.5).abs() < 1e-6);
        assert!((r - 0.5).abs() < 1e-6);
    }

    #[test]
    fn match_detections_one_truth_matches_once() {
        let truths = vec![(50usize, 50usize)];
        let dets = vec![det(50, 50, 0.9, 8.0), det(51, 51, 0.8, 8.0)];
        let (p, r) = match_detections(&dets, &truths, 5);
        assert!((p - 0.5).abs() < 1e-6, "second detection must not re-match");
        assert!((r - 1.0).abs() < 1e-6);
    }

    #[test]
    fn scan_scene_parallel_matches_sequential_bitwise() {
        use dcd_nn::SppNet;
        rayon::ensure_threads(4);
        let mut arch = SppNetConfig::tiny();
        arch.in_channels = 4;
        let model = SppNet::new(arch, &mut SeededRng::new(5));
        let mut detector = DrainageCrossingDetector::from_model(model);
        detector.threshold = 0.0; // fire everywhere: maximal NMS workload
        let cfg = small_config();
        let ds = PatchDataset::generate(&cfg, 21);
        let bands = render_bands(&ds.scene, 0.03, &mut SeededRng::new(9));
        let scan = ScanConfig::for_patch(48).with_batch_size(8).with_stride(24);
        let par = scan_scene(&mut detector, &bands, &scan);
        let seq = rayon::force_sequential(|| scan_scene(&mut detector, &bands, &scan));
        assert!(
            !par.is_empty(),
            "untrained scan at threshold 0 found nothing"
        );
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(seq.iter()) {
            assert_eq!((p.x, p.y), (s.x, s.y));
            assert_eq!(p.score.to_bits(), s.score.to_bits(), "scores diverged");
            assert_eq!(p.w.to_bits(), s.w.to_bits());
            assert_eq!(p.h.to_bits(), s.h.to_bits());
        }
    }

    #[test]
    fn resilient_scan_matches_plain_scan_under_transient_faults() {
        use dcd_gpusim::FaultPlan;
        use dcd_nn::SppNet;
        // An untrained model suffices: detections just have to be
        // deterministic, not good.
        let mut arch = SppNetConfig::tiny();
        arch.in_channels = 4;
        let model = SppNet::new(arch, &mut SeededRng::new(5));
        let mut detector = crate::detector::DrainageCrossingDetector::from_model(model);
        detector.threshold = 0.0; // fire everywhere
        let cfg = small_config();
        let ds = PatchDataset::generate(&cfg, 21);
        let bands = render_bands(&ds.scene, 0.03, &mut SeededRng::new(9));
        let scan = ScanConfig::for_patch(48).with_batch_size(8).with_stride(24);
        let plain = scan_scene(&mut detector, &bands, &scan);
        let sim = SimScanConfig::new()
            .with_device(DeviceSpec::test_gpu())
            .with_fault_plan(FaultPlan {
                seed: 77,
                launch_failure_rate: 0.02,
                memcpy_failure_rate: 0.01,
                ..FaultPlan::none()
            });
        let report = scan_scene_resilient(&mut detector, &bands, &scan, &sim)
            .expect("transient faults are absorbed");
        assert_eq!(
            report.detections, plain,
            "faults must not change detections"
        );
        assert!(report.health.faults_seen() > 0, "plan injected nothing");
        assert!(report.health.retries > 0);
        assert!(!report.fell_back);
        assert_eq!(report.batch, 8);
        assert!(report.sim_ns > 0);
    }

    #[test]
    fn scan_finds_crossings_in_a_trained_scene() {
        // End-to-end: train on the dataset's patches, scan the same scene.
        let mut cfg = small_config();
        cfg.center_jitter = 2;
        let ds = PatchDataset::generate(&cfg, 42);
        let mut arch = SppNetConfig::original();
        arch.channels = [8, 16, 16];
        arch.fc1 = 64;
        let mut detector = DrainageCrossingDetector::train(
            arch,
            &ds.train,
            TrainConfig {
                epochs: 12,
                batch_size: 16,
                sgd: Sgd::new(0.015, 0.9, 0.0005),
                lr_decay_every: Some(5),
                ..Default::default()
            },
            7,
        );
        detector.threshold = 0.6;
        let bands = render_bands(&ds.scene, 0.03, &mut SeededRng::new(9));
        let scan = ScanConfig::for_patch(64).with_batch_size(16);
        let dets = scan_scene(&mut detector, &bands, &scan);
        assert!(!dets.is_empty(), "scan found nothing");
        // Only interior crossings can sit at a tile centre (edge crossings
        // were likewise excluded from training patches).
        let interior: Vec<(usize, usize)> = ds
            .scene
            .crossings
            .iter()
            .copied()
            .filter(|&(x, y)| {
                x >= 32 && y >= 32 && x < ds.scene.width() - 32 && y < ds.scene.height() - 32
            })
            .collect();
        let (precision, recall) = match_detections(&dets, &interior, 12);
        assert!(
            recall > 0.5,
            "recall {recall} too low ({} detections vs {} interior crossings)",
            dets.len(),
            interior.len()
        );
        assert!(precision > 0.3, "precision {precision} too low");
    }
}
