//! The `drainage-repro` binary fails cleanly on a bad checkpoint: a
//! missing, truncated or architecturally invalid `model.json` makes `scan`
//! print the underlying error and exit non-zero, without panicking.

use dcd_nn::{Checkpoint, SppNet, SppNetConfig};
use dcd_tensor::SeededRng;
use std::path::PathBuf;
use std::process::Command;

/// A per-test scratch path under the system temp directory.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("drainage-repro-cli-{}-{name}", std::process::id()))
}

/// Runs `scan --model <path>` and returns (exit success, stderr).
fn scan(path: &PathBuf) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_drainage-repro"))
        .args(["scan", "--model"])
        .arg(path)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_clean_failure(path: &PathBuf, expect: &str) {
    let (ok, stderr) = scan(path);
    assert!(!ok, "scan succeeded on a bad checkpoint");
    assert!(!stderr.contains("panicked"), "scan panicked: {stderr}");
    assert!(stderr.contains(expect), "stderr lacks {expect:?}: {stderr}");
}

fn tiny_checkpoint() -> Checkpoint {
    let mut model = SppNet::new(SppNetConfig::tiny(), &mut SeededRng::new(3));
    Checkpoint::save(&mut model)
}

#[test]
fn scan_reports_missing_checkpoint() {
    let path = temp_path("missing.json");
    let _ = std::fs::remove_file(&path);
    assert_clean_failure(&path, "cannot read checkpoint");
}

#[test]
fn scan_reports_truncated_checkpoint() {
    let path = temp_path("truncated.json");
    let json = tiny_checkpoint().to_json();
    std::fs::write(&path, &json[..json.len() / 2]).expect("write checkpoint");
    assert_clean_failure(&path, "is not valid checkpoint JSON");
    std::fs::remove_file(&path).expect("remove checkpoint");
}

#[test]
fn scan_reports_checkpoint_that_does_not_match_its_config() {
    let path = temp_path("short.json");
    let mut ckpt = tiny_checkpoint();
    ckpt.params.pop();
    std::fs::write(&path, ckpt.to_json()).expect("write checkpoint");
    assert_clean_failure(&path, "parameters, model expects");
    std::fs::remove_file(&path).expect("remove checkpoint");
}
