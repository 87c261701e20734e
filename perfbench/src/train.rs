//! `train-epoch`: one `Trainer::train` epoch at paper settings (SGD lr
//! 0.005, momentum 0.9, weight decay 0.0005, batch 20) over seeded training
//! patches. It is the only workload that writes weights on every step and
//! the only one that runs the backward kernels on its path.
//!
//! Every timed epoch starts from the same initial weights, restored outside
//! the timing, so repeats must give a bit-identical epoch loss.

use crate::layers::{self, Extra, OnPath, ScanCounts, TRAIN_BATCH};
use crate::replay::Weights;
use crate::stats::{decision_f1, median};
use crate::trace::Tracer;
use crate::{detector, repeated_setup, timed_phase, Args, EndToEnd, Report};
use dcd_core::DrainageCrossingDetector;
use dcd_geodata::{render_bands, DatasetConfig, PatchDataset, Scene};
use dcd_nn::{bce_with_logits, smooth_l1, Detection, Sample, Sgd, TrainConfig, Trainer};
use dcd_tensor::{scratch, SeededRng, Tensor};
use std::time::Instant;

/// Samples per epoch (two steps), independent of the seed's split size.
const EPOCH_SAMPLES: usize = 40;

struct Setup {
    det: DrainageCrossingDetector,
    samples: Vec<Sample>,
    init: Vec<Tensor>,
    scene: Scene,
    config: TrainConfig,
}

fn setup(seed: u64) -> Setup {
    // Only the training split and the scene outlive this statement, and
    // only `EPOCH_SAMPLES` samples outlive the next: peak memory must not
    // depend on how many patches the seed's scene yields.
    let PatchDataset { train, scene, .. } = PatchDataset::generate(&DatasetConfig::default(), seed);
    assert!(
        !train.is_empty(),
        "seed {seed} produced no training patches"
    );
    let samples: Vec<Sample> = train.iter().cycle().take(EPOCH_SAMPLES).cloned().collect();
    drop(train);
    let mut det = detector();
    let init = det
        .model_mut()
        .params_mut()
        .iter()
        .map(|p| p.value.clone())
        .collect();
    let config = TrainConfig {
        epochs: 1,
        batch_size: TRAIN_BATCH,
        sgd: Sgd::paper(),
        shuffle_seed: seed,
        ..TrainConfig::default()
    };
    let mut s = Setup {
        det,
        samples,
        init,
        scene,
        config,
    };
    // Warm-up: one step grows the pool, the scratch arena and the gradient
    // buffers; then back to the initial weights.
    let first = first_batch(&s.samples, &s.config);
    Trainer::new(s.config).train_batch(s.det.model_mut(), &first);
    s.restore();
    s
}

impl Setup {
    /// Initial weights, zero momentum and zero gradients.
    fn restore(&mut self) {
        for (p, v) in self
            .det
            .model_mut()
            .params_mut()
            .into_iter()
            .zip(&self.init)
        {
            p.value.data_mut().copy_from_slice(v.data());
            p.velocity.data_mut().fill(0.0);
            p.grad.data_mut().fill(0.0);
        }
    }
}

/// The epoch's sample order, as `Trainer::train` shuffles it.
fn order(samples: &[Sample], config: &TrainConfig) -> Vec<usize> {
    let mut order: Vec<usize> = (0..samples.len()).collect();
    SeededRng::new(config.shuffle_seed).shuffle(&mut order);
    order
}

/// The epoch's first minibatch.
fn first_batch<'a>(samples: &'a [Sample], config: &TrainConfig) -> Vec<&'a Sample> {
    order(samples, config)[..config.batch_size]
        .iter()
        .map(|&i| &samples[i])
        .collect()
}

fn stack(batch: &[&Sample]) -> Tensor {
    let mut data = Vec::with_capacity(batch.len() * batch[0].image.numel());
    for s in batch {
        data.extend_from_slice(s.image.data());
    }
    let mut dims = vec![batch.len()];
    dims.extend_from_slice(batch[0].image.dims());
    Tensor::from_vec(dims, data).expect("batch tensor")
}

/// One SGD step as `Trainer::train_batch` takes it, through the public
/// calls, one span each: batch assembly, forward, loss, backward, update.
pub fn step(
    det: &mut DrainageCrossingDetector,
    batch: &[&Sample],
    sgd: Sgd,
    t: &mut Tracer,
) -> f32 {
    let n = batch.len();
    let model = det.model_mut();
    let (x, obj_t, box_t, mask) = t.span("nn.batch", n, |_| {
        let mut obj = Tensor::zeros([n]);
        let mut boxes = Tensor::zeros([n, 4]);
        let mut mask = vec![0.0f32; n];
        for (i, s) in batch.iter().enumerate() {
            if let Some(b) = s.label {
                obj.data_mut()[i] = 1.0;
                boxes.data_mut()[i * 4..(i + 1) * 4].copy_from_slice(&b.to_vec());
                mask[i] = 1.0;
            }
        }
        (stack(batch), obj, boxes, mask)
    });
    let out = t.span("nn.forward", n, |_| model.forward(&x));
    let ((obj_loss, grad_obj), (box_loss, grad_box)) = t.span("nn.loss", n, |_| {
        (
            bce_with_logits(&out.obj_logits, &obj_t),
            smooth_l1(&out.boxes, &box_t, &mask),
        )
    });
    // The default box-loss weight of 1.0, applied as the trainer does.
    let w = TrainConfig::default().box_loss_weight;
    t.span("nn.backward", n, |_| {
        model.backward(&grad_obj, &grad_box.scale(w))
    });
    t.span("nn.sgd", n, |_| sgd.step(&mut model.params_mut()));
    obj_loss + w * box_loss
}

fn same(a: &Option<Detection>, b: &Option<Detection>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            a.score.to_bits() == b.score.to_bits()
                && a.bbox.to_vec().map(f32::to_bits) == b.bbox.to_vec().map(f32::to_bits)
        }
        (None, None) => true,
        _ => false,
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (mut s, setup_s) = repeated_setup(|| setup(args.seed));
    let steps = EPOCH_SAMPLES.div_ceil(TRAIN_BATCH) as u64;
    let timed = timed_phase(&mut s, args.seconds, Setup::restore, |s, _| {
        Trainer::new(s.config).train(s.det.model_mut(), &s.samples)[0].loss
    })?;
    let epochs = &timed.ops;

    // Checks, outside the timed phase: finite losses, bit-identical repeats.
    let reference = epochs.iter().find_map(|e| e.0);
    let mut failed = 0u64;
    for (loss, _) in epochs {
        let ok = matches!((loss, reference), (Some(l), Some(r)) if l.is_finite() && l.to_bits() == r.to_bits());
        if !ok {
            failed += steps;
        }
    }
    // The first step under a pinned sequential pool must be bit-identical
    // to the pooled one; its detections give the agreement score.
    let trainer = Trainer::new(s.config);
    let mut first_step = |sequential: bool| {
        s.restore();
        let batch = first_batch(&s.samples, &s.config);
        let x = stack(&batch);
        let model = s.det.model_mut();
        let loss = if sequential {
            rayon::force_sequential(|| trainer.train_batch(model, &batch))
        } else {
            trainer.train_batch(model, &batch)
        };
        (loss.0, s.det.detect_tensor(&x))
    };
    let (pooled_loss, pooled) = first_step(false);
    let (seq_loss, seq) = first_step(true);
    if pooled_loss.to_bits() != seq_loss.to_bits() {
        failed += 1;
    }
    let fires = |d: &[Option<Detection>]| d.iter().map(Option::is_some).collect::<Vec<_>>();
    let agreement_f1 = decision_f1(&fires(&pooled), &fires(&seq), |i| same(&pooled[i], &seq[i]));

    let times = timed.times();
    let info = vec![
        ("workload", "train-epoch".to_string()),
        ("epoch_samples", EPOCH_SAMPLES.to_string()),
        ("epochs", epochs.len().to_string()),
        ("epoch_loss", format!("{reference:?}")),
        (
            "first_step_loss_pooled_vs_sequential",
            format!("{pooled_loss} vs {seq_loss}"),
        ),
        ("timed_scratch_grow_events", timed.grow_events.to_string()),
    ];
    Ok(EndToEnd {
        setup_s,
        peak_rss_mb: timed.peak_rss_mb,
        attempted: epochs.len() as u64 * steps,
        failed,
        items_per_s: EPOCH_SAMPLES as f64 / median(&times).expect("epochs"),
        latencies_s: times,
        agreement_f1,
    }
    .into_report(info))
}

pub fn traced(args: &Args) -> Result<Report, String> {
    let mut s = setup(args.seed);
    let mut t = Tracer::new();
    s.restore();
    let t0 = Instant::now();
    let reference = Trainer::new(s.config).train(s.det.model_mut(), &s.samples)[0].loss;
    let untraced = t0.elapsed().as_secs_f64();

    s.restore();
    let grow0 = scratch::grow_events();
    let order = order(&s.samples, &s.config);
    let (mut sum, mut batches, mut wall) = (0.0f32, 0usize, 0.0f64);
    for chunk in order.chunks(s.config.batch_size) {
        let batch: Vec<&Sample> = chunk.iter().map(|&i| &s.samples[i]).collect();
        let (loss, dt) = t.op("nn.step", batch.len(), |t| {
            step(&mut s.det, &batch, s.config.sgd, t)
        });
        sum += loss;
        batches += 1;
        wall += dt;
    }
    let grow = scratch::grow_events() - grow0;
    let replayed = sum * (1.0 / batches as f32);
    if replayed.to_bits() != reference.to_bits() {
        return Err(format!(
            "replayed epoch loss {replayed} differs from Trainer::train's {reference}"
        ));
    }

    s.restore();
    let w = Weights::of(s.det.model_mut());
    let x = stack(&first_batch(&s.samples, &s.config));
    let bands = render_bands(&s.scene, 0.03, &mut SeededRng::new(args.seed));
    let on_path = OnPath {
        clip: false,
        nms: false,
        train_step: true,
    };
    let side = layers::side_calls(&mut s.det, &w, &x, &bands, on_path, args.seed, &mut t)?;
    let extra = Extra {
        patch: x.dims()[2],
        side,
        scan: ScanCounts::default(),
        grow_events: grow,
        overhead_pct: (wall / untraced - 1.0) * 100.0,
    };
    let metrics = layers::per_layer(&t, &w, &extra)?;
    let path = layers::write_spans(&t, "train-epoch", args.seed)?;
    Ok(Report {
        attempted: batches as u64,
        failed: 0,
        metrics,
        info: vec![
            ("workload", "train-epoch".to_string()),
            (
                "replay",
                format!("epoch loss {replayed} bit-identical to Trainer::train"),
            ),
            ("spans", path),
            ("span_counts", layers::span_counts(&t)),
        ],
    })
}
