//! The machine block printed with every result, and the peak-RSS probe.

use std::fmt::Write as _;
use std::path::Path;

/// CPU brand string from `cpuid` (no file access needed).
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        #[allow(unused_unsafe)]
        // SAFETY: `cpuid` exists on every x86-64 CPU; the extended leaves are
        // read only after leaf 0x8000_0000 reports that they exist.
        let brand = unsafe {
            if __cpuid(0x8000_0000).eax < 0x8000_0004 {
                return "unknown".to_string();
            }
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            bytes
        };
        String::from_utf8_lossy(&brand)
            .trim_matches(char::from(0))
            .trim()
            .to_string()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "unknown".to_string()
    }
}

/// SIMD features this binary (and the library crates) were compiled for.
fn target_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    if cfg!(target_feature = "sse4.2") {
        f.push("sse4.2");
    }
    if cfg!(target_feature = "avx") {
        f.push("avx");
    }
    if cfg!(target_feature = "avx2") {
        f.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        f.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        f.push("avx512f");
    }
    f
}

/// The commit being measured, when the checkout carries its git metadata.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unavailable".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unavailable".to_string()),
    }
}

/// FNV-1a digest of the library sources and build settings, which
/// identifies the measured code when the checkout is not a git repository.
fn source_digest(root: &Path) -> String {
    fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                collect(&p, out);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                out.push(p);
            }
        }
    }
    let mut files = vec![
        root.join("Cargo.toml"),
        root.join("Cargo.lock"),
        root.join(".cargo/config.toml"),
    ];
    collect(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        for b in rel
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on Linux: two `timeval`s (4 words), then `ru_maxrss`
    // (KiB) and 13 more longs.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer of exactly `sizeof(struct
    // rusage)` (144 bytes) on 64-bit Linux; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage[4] as f64 / 1024.0
}

/// The machine block as a JSON object.
pub fn block(seed: u64, pool_workers: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features: Vec<String> = target_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect();
    let root = crate::repo_root();
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"cpu\":\"{}\",\"nproc\":{nproc},\"pool_workers\":{pool_workers},\"target_features\":[{}],\"git_rev\":\"{}\",\"source_digest\":\"{}\",\"seed\":{seed}}}",
        cpu_model().replace('"', "'"),
        features.join(","),
        git_rev(&root),
        source_digest(&root)
    );
    s
}
