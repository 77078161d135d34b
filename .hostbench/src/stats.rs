//! Percentiles, the setup timer and the process memory reading.

use std::time::Instant;

/// Nearest-rank percentile (`q` in `0..=100`) of unsorted samples; `0.0`
/// for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Runs `build` at least `MIN_REPS` times and until `MIN_TOTAL_S` of host
/// time has passed (at most `MAX_REPS`), and returns the last product with
/// the median set-up time. Short set-ups are repeated more, so the median
/// is not one noisy reading.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64, usize) {
    const MIN_REPS: usize = 3;
    const MAX_REPS: usize = 31;
    const MIN_TOTAL_S: f64 = 1.0;
    let mut times = Vec::new();
    let mut total = 0.0;
    loop {
        let t0 = Instant::now();
        let product = build();
        let dt = t0.elapsed().as_secs_f64();
        times.push(dt);
        total += dt;
        if times.len() >= MAX_REPS || (times.len() >= MIN_REPS && total >= MIN_TOTAL_S) {
            return (product, percentile(&times, 50.0), times.len());
        }
        drop(product);
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or `None`
/// where `/proc` is unavailable.
///
/// The workloads read it once set-up and one warm-up pass over every input
/// are done. Repeating the same work afterwards only adds allocator
/// fragmentation across worker-thread arenas, which moved the end-of-run
/// peak of `decode-fleet` by up to 50% between identical runs.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
