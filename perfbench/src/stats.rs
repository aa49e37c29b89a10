//! Small measurement helpers: percentiles, clock conversions, peak memory.

use std::time::Duration;

/// Nearest-rank `p`-th percentile (0–100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (the 50th nearest-rank percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Mean of `samples`; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when `den` is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layout of `struct rusage` on Linux: two `timeval`s, then fourteen
/// `long` counters of which `ru_maxrss` is the first.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        times: [0; 4],
        counters: [0; 14],
    };
    // SAFETY: `RUsage` matches the C `struct rusage` layout on 64-bit
    // Linux (144 bytes), the pointer is to a live, writable local, and
    // `RUSAGE_SELF` (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.counters[0] as f64 / 1024.0
}
