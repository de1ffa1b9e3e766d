//! Shared measurement helpers: quantiles, medians, the per-run metric
//! table, and the few process facts the environment block reports.

use std::collections::BTreeMap;
use std::path::Path;

use proust_stm::obs::Histogram;

/// Length of one measured window. Each end-to-end figure is the median
/// over a run's windows, so a burst of interference from outside the
/// benchmark moves one window, not the reading.
const WINDOW_SECONDS: f64 = 1.0;

/// Windows in a measured run of `seconds`.
pub fn window_count(seconds: f64) -> usize {
    (seconds / WINDOW_SECONDS).round().max(1.0) as usize
}

/// Quantile `q` of a log-bucketed histogram, linearly interpolated inside
/// the bucket that holds the rank. The histogram's own accessor returns
/// bucket midpoints, which read the same on every run; interpolation
/// keeps the estimate continuous. Returns 0 for an empty histogram.
pub fn hist_quantile(hist: &Histogram, q: f64) -> f64 {
    let count = hist.count();
    if count == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * count as f64;
    let mut before = 0u64;
    for ((floor, n), (upper, _)) in
        hist.nonzero_buckets().into_iter().zip(hist.cumulative_buckets())
    {
        if (before + n) as f64 >= rank {
            let upper = upper.min(hist.max()).max(floor);
            let within = (rank - before as f64) / n as f64;
            return floor as f64 + within * (upper - floor) as f64;
        }
        before += n;
    }
    hist.max() as f64
}

/// Quantile `q` of an ascending slice, interpolated between ranks.
pub fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        len => {
            let pos = q.clamp(0.0, 1.0) * (len - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(len - 1);
            sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

/// Median of a set of readings.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted_quantile(&sorted, 0.5)
}

/// One metric reading and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub samples: u64,
}

/// The metrics a run produces, by name, with where each came from.
#[derive(Debug, Default)]
pub struct Metrics {
    readings: BTreeMap<String, (Reading, &'static str)>,
}

impl Metrics {
    /// Record `name` measured by `source` (a pass or cell name).
    pub fn set(&mut self, name: &str, value: f64, samples: u64, source: &'static str) {
        self.readings.insert(name.to_string(), (Reading { value, samples }, source));
    }

    pub fn get(&self, name: &str) -> Option<Reading> {
        self.readings.get(name).map(|(reading, _)| *reading)
    }

    pub fn source(&self, name: &str) -> Option<&'static str> {
        self.readings.get(name).map(|(_, source)| *source)
    }

    /// Copy the readings whose name satisfies `keep` from `other`,
    /// relabelling their source as `companion` when given.
    pub fn take_from(
        &mut self,
        other: &Metrics,
        keep: impl Fn(&str) -> bool,
        companion: Option<&'static str>,
    ) {
        for (name, (reading, source)) in &other.readings {
            if keep(name) {
                self.readings.insert(name.clone(), (*reading, companion.unwrap_or(source)));
            }
        }
    }
}

/// Resident set size of this process, MiB (from `/proc/self/statm`).
pub fn rss_mb() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: f64 = statm.split_whitespace().nth(1).and_then(|v| v.parse().ok()).unwrap_or(0.0);
    pages * 4096.0 / (1024.0 * 1024.0)
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[repr(C)]
struct StatFs {
    f_type: i64,
    rest: [u64; 15],
}

extern "C" {
    fn statfs(path: *const std::ffi::c_char, buf: *mut StatFs) -> i32;
}

/// The filesystem type holding `path`, by `statfs(2)` magic number.
pub fn fs_type(path: &Path) -> String {
    use std::os::unix::ffi::OsStrExt;
    let Ok(cpath) = std::ffi::CString::new(path.as_os_str().as_bytes()) else {
        return "unknown".to_string();
    };
    let mut buf = StatFs { f_type: 0, rest: [0; 15] };
    // SAFETY: `cpath` is a NUL-terminated string that outlives the call,
    // and `buf` is a writable buffer at least as large as the kernel's
    // `struct statfs` (120 bytes on 64-bit Linux; ours is 128).
    let rc = unsafe { statfs(cpath.as_ptr(), &mut buf) };
    if rc != 0 {
        return "unknown".to_string();
    }
    match buf.f_type as u32 {
        0xEF53 => "ext4".to_string(),
        0x5846_5342 => "xfs".to_string(),
        0x9123_683E => "btrfs".to_string(),
        0x0102_1994 => "tmpfs".to_string(),
        0x794C_7630 => "overlayfs".to_string(),
        0x6969 => "nfs".to_string(),
        0x0102_1997 => "9p".to_string(),
        other => format!("0x{other:x}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_tracks_exact_quantile() {
        let hist = Histogram::new();
        let mut exact: Vec<f64> = Vec::new();
        for i in 0..10_000u64 {
            let v = 1_000 + (i * 7919) % 50_000;
            hist.record(v);
            exact.push(v as f64);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.5, 0.99] {
            let want = sorted_quantile(&exact, q);
            let got = hist_quantile(&hist, q);
            assert!((got - want).abs() / want < 0.03, "q={q}: {got} vs {want}");
        }
    }

    #[test]
    fn median_of_even_count_interpolates() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
