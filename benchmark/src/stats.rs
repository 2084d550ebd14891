//! The harness's own arithmetic: medians, quartiles, nearest-rank
//! percentiles, `/proc` parsing and the share fold.

use td_support::metrics::percentile_nearest_rank;

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the exclusive method the acceptance rule uses). `None`
/// with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, linearly interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range over the median — the spread the acceptance rule
/// compares with a metric's bound. 0 when undefined.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Median and 95th percentile (nearest rank) of latencies given in
/// nanoseconds, in milliseconds. p95 is the highest percentile reported: it
/// keeps at least ten samples beyond it in every round of 200 jobs or more.
pub fn p50_p95_ms(latencies_ns: &[u64]) -> (f64, f64) {
    let mut sorted: Vec<u128> = latencies_ns.iter().map(|&ns| u128::from(ns)).collect();
    sorted.sort_unstable();
    let ms = |p: f64| percentile_nearest_rank(&sorted, p) as f64 / 1e6;
    (ms(50.0), ms(95.0))
}

/// `VmHWM` in kB from the text of `/proc/<pid>/status`.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock_id: *mut i32) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User+system CPU time process `pid` has consumed so far (all its threads,
/// including those that have exited), in nanoseconds, from the kernel's
/// per-process CPU clock. `/proc/<pid>/stat` holds the same sum rounded to
/// 10 ms ticks, which is a tenth of a short segment.
///
/// # Panics
/// Panics if the process does not exist (the harness only asks about itself
/// and a daemon it is holding).
pub fn cpu_time_ns(pid: u32) -> u64 {
    let mut clock = 0i32;
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: both functions only write through the pointer they are given,
    // and each points at a live, properly aligned local of the C type's
    // layout (`clockid_t` is `int`; `struct timespec` is two 64-bit words on
    // the 64-bit Linux targets `/proc` already restricts this harness to).
    let status = unsafe {
        match clock_getcpuclockid(pid as i32, &mut clock) {
            0 => clock_gettime(clock, &mut time),
            error => error,
        }
    };
    assert_eq!(status, 0, "no CPU clock for process {pid}");
    time.tv_sec as u64 * 1_000_000_000 + time.tv_nsec as u64
}

/// Peak resident set of process `pid` in kB.
pub fn peak_rss_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|text| vm_hwm_kb(&text))
        .unwrap_or(0)
}

/// Folds per-layer self times into shares of `total_ns`, appending
/// `unattributed` as the remainder so the shares sum to 1. If the layers
/// add up to more than the total (a replayed sample can run slower than it
/// did in place), they are scaled to fit and nothing is left unattributed.
pub fn fold_shares(layers: &[(String, f64)], total_ns: f64) -> Vec<(String, f64)> {
    let attributed: f64 = layers.iter().map(|(_, ns)| ns).sum();
    let denominator = total_ns.max(attributed);
    let mut shares: Vec<(String, f64)> = layers
        .iter()
        .map(|(name, ns)| {
            let share = if denominator > 0.0 {
                ns / denominator
            } else {
                0.0
            };
            (name.clone(), share)
        })
        .collect();
    let rest = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();
    shares.push(("unattributed".to_owned(), rest.max(0.0)));
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let ns: Vec<u64> = (1..=200).map(|i| i * 1_000_000).collect();
        // Ten samples lie beyond p95.
        assert_eq!(p50_p95_ms(&ns), (100.0, 190.0));
        assert_eq!(p50_p95_ms(&[]), (0.0, 0.0));
    }

    #[test]
    fn proc_status_peak_rss() {
        let status = "Name:\ttd_serve\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(5120));
        assert_eq!(vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_kb(std::process::id()) > 0);
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let me = std::process::id();
        let before = cpu_time_ns(me);
        let started = std::time::Instant::now();
        let mut x = 0u64;
        while started.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let spent = cpu_time_ns(me) - before;
        assert!(
            spent > 5_000_000,
            "20 ms of spinning cost {spent} ns of CPU"
        );
    }

    #[test]
    fn shares_sum_to_one() {
        let layers = vec![("parse".to_owned(), 30.0), ("interp".to_owned(), 50.0)];
        let shares = fold_shares(&layers, 100.0);
        assert_eq!(shares.len(), 3);
        assert_eq!(shares[2].0, "unattributed");
        assert!((shares[2].1 - 0.2).abs() < 1e-12);
        assert!((shares.iter().map(|(_, s)| s).sum::<f64>() - 1.0).abs() < 1e-12);
        // Layers exceeding the total are scaled; nothing is unattributed.
        let over = fold_shares(&layers, 40.0);
        assert!((over.iter().map(|(_, s)| s).sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(over[2].1, 0.0);
        assert!((over[0].1 - 0.375).abs() < 1e-12);
    }
}
