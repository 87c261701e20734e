//! The repository benchmark: three workloads at paper width (SPP-Net #2,
//! channels 64/128/256, 4 bands, 100-px patches, SPP {5,2,1}, FC 4096,
//! seeded untrained weights, default detector threshold), one process, the
//! default pool, one client.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scene-scan --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. The last line of standard output is
//! the result object; the line before it is the machine block. See
//! `perfbench/README.md` for the metric definitions.

mod layers;
mod machine;
mod online;
mod replay;
mod scan;
mod stats;
mod trace;
mod train;

use dcd_core::DrainageCrossingDetector;
use dcd_nn::{SppNet, SppNetConfig};
use dcd_tensor::SeededRng;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewest timed operations per untraced run, however long they take.
const MIN_OPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SceneScan,
    PatchOnline,
    TrainEpoch,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "scene-scan" => Some(Workload::SceneScan),
            "patch-online" => Some(Workload::PatchOnline),
            "train-epoch" => Some(Workload::TrainEpoch),
            _ => None,
        }
    }
}

pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run reports: operation counts, metrics, and context lines.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Run context (sizes, sample counts, check outcomes) for the info line.
    pub info: Vec<(&'static str, String)>,
}

/// The end-to-end measurements every workload reports.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Work items (tiles, patches or samples) per second.
    pub items_per_s: f64,
    /// Per-operation latencies (scan, request or epoch), seconds.
    pub latencies_s: Vec<f64>,
    pub agreement_f1: f64,
}

impl EndToEnd {
    pub fn into_report(self, mut info: Vec<(&'static str, String)>) -> Report {
        let ms = |q: f64| stats::percentile(&self.latencies_s, q).unwrap_or(f64::NAN) * 1e3;
        info.push(("latency_samples", self.latencies_s.len().to_string()));
        info.push(("setup_samples_s", format!("{:?}", self.setup_s)));
        let metrics = vec![
            metric(
                "setup_s",
                stats::median(&self.setup_s).unwrap_or(f64::NAN),
                "s",
            ),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB"),
            metric(
                "success_rate",
                1.0 - self.failed as f64 / self.attempted.max(1) as f64,
                "ratio",
            ),
            metric("items_per_s", self.items_per_s, "1/s"),
            metric("latency_p50_ms", ms(0.5), "ms"),
            metric("latency_p90_ms", ms(0.9), "ms"),
            metric("agreement_f1", self.agreement_f1, "ratio"),
        ];
        Report {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            info,
        }
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, keeping the last state, and
/// returns it with every set-up's wall time.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), times)
}

/// Untraced runs measure the program with its own recording off.
fn check_obs_off() -> Result<(), String> {
    if dcd_obs::enabled() {
        Err("dcd-obs recording is on during an untraced run".into())
    } else {
        Ok(())
    }
}

/// The timed phase of an untraced run.
pub struct Timed<R> {
    /// Each operation's result (`None` if it panicked) and wall time, s.
    pub ops: Vec<(Option<R>, f64)>,
    /// Wall time of the whole phase, s.
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    /// Scratch-arena growths during the phase.
    pub grow_events: u64,
}

impl<R> Timed<R> {
    pub fn times(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.1).collect()
    }
}

/// Runs `op` on `state` until the next operation, at the median duration so
/// far, would end past `seconds` (and at least [`MIN_OPS`] times). `before`
/// runs untimed ahead of each operation. A panicking operation is recorded
/// as `None`.
pub fn timed_phase<S, R>(
    state: &mut S,
    seconds: f64,
    mut before: impl FnMut(&mut S),
    mut op: impl FnMut(&mut S, usize) -> R,
) -> Result<Timed<R>, String> {
    check_obs_off()?;
    let grow0 = dcd_tensor::scratch::grow_events();
    let mut ops: Vec<(Option<R>, f64)> = Vec::new();
    let start = Instant::now();
    loop {
        let times: Vec<f64> = ops.iter().map(|o| o.1).collect();
        let next = stats::median(&times).unwrap_or(0.0);
        if ops.len() >= MIN_OPS && start.elapsed().as_secs_f64() + next > seconds {
            break;
        }
        before(state);
        let i = ops.len();
        let t0 = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| op(state, i)));
        ops.push((r.ok(), t0.elapsed().as_secs_f64()));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = machine::peak_rss_mb();
    let grow_events = dcd_tensor::scratch::grow_events() - grow0;
    check_obs_off()?;
    Ok(Timed {
        ops,
        wall_s,
        peak_rss_mb,
        grow_events,
    })
}

/// Seed of the untrained weights. It is fixed, so the workload seed varies
/// only the inputs, and chosen so the untrained detector fires on scene
/// tiles at the default threshold: some weight seeds score every tile below
/// 0.5, which would leave NMS idle and the scan agreement vacuous.
const MODEL_SEED: u64 = 0x5eed_cafe ^ 1;

/// SPP-Net #2 (the paper's final pick) with seeded untrained weights,
/// behind the detector API at its default threshold.
pub fn detector() -> DrainageCrossingDetector {
    let model = SppNet::new(SppNetConfig::candidate2(), &mut SeededRng::new(MODEL_SEED));
    DrainageCrossingDetector::from_model(model)
}

/// The checkout root (the parent of this package).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package has a parent directory")
        .to_path_buf()
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <scene-scan|patch-online|train-epoch> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let result = match (args.workload, args.trace) {
        (Workload::SceneScan, false) => scan::run(&args),
        (Workload::SceneScan, true) => scan::traced(&args),
        (Workload::PatchOnline, false) => online::run(&args),
        (Workload::PatchOnline, true) => online::traced(&args),
        (Workload::TrainEpoch, false) => train::run(&args),
        (Workload::TrainEpoch, true) => train::traced(&args),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", m.name);
        std::process::exit(1);
    }
    let info: Vec<String> = report
        .info
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!(
        "{{\"machine\":{},\"info\":{{{}}}}}",
        machine::block(args.seed, rayon::current_num_threads()),
        info.join(",")
    );
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    );
}
