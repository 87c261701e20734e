//! Order statistics and the agreement score shared by the workloads.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`; `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// F1 from precision and recall; 0 when both are 0.
pub fn f1(precision: f32, recall: f32) -> f64 {
    let (p, r) = (precision as f64, recall as f64);
    if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

/// F1 of per-item decisions against a reference, using the conventions of
/// `dcd_core::match_detections`: a candidate item that fires is a true
/// positive when the reference fires too and `same(i)` holds; an empty
/// candidate set has precision 1, an empty reference set recall 1.
pub fn decision_f1(candidate: &[bool], reference: &[bool], same: impl Fn(usize) -> bool) -> f64 {
    let fired = candidate.iter().filter(|&&c| c).count();
    let truths = reference.iter().filter(|&&r| r).count();
    let tp = (0..candidate.len())
        .filter(|&i| candidate[i] && reference[i] && same(i))
        .count();
    let precision = if fired == 0 {
        1.0
    } else {
        tp as f32 / fired as f32
    };
    let recall = if truths == 0 {
        1.0
    } else {
        tp as f32 / truths as f32
    };
    f1(precision, recall)
}
