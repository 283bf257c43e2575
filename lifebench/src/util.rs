//! Small measurement helpers: quantiles, process memory, file and directory sizes.

use std::path::Path;
use std::time::{Duration, Instant};

/// Linear-interpolated quantile `q` (0..=1) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Set-up time from several builds, each timed piece by piece (the same
/// pieces in the same order): the sum, over the pieces, of each piece's
/// median across the builds. A burst of host noise that slows part of
/// one build and part of another leaves it alone, where the median of the
/// builds' totals would take it in.
pub fn piecewise_median(builds: &[Vec<f64>]) -> f64 {
    (0..builds[0].len())
        .map(|i| median(&builds.iter().map(|b| b[i]).collect::<Vec<_>>()))
        .sum()
}

/// Mean of the samples between the first and third quartiles.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let (lo, hi) = (v.len() / 4, v.len() - v.len() / 4);
    let mid = &v[lo..hi.max(lo + 1)];
    mid.iter().sum::<f64>() / mid.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read store directory")
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Length of the store's write-ahead log, bytes.
pub fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.log"))
        .map(|m| m.len())
        .unwrap_or(0)
}

/// Copy the regular files of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create directory");
    for entry in std::fs::read_dir(from)
        .expect("read directory")
        .filter_map(Result::ok)
    {
        if entry.metadata().map(|m| m.is_file()).unwrap_or(false) {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy store file");
        }
    }
}

pub fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
