//! Structured metrics: counters, timers, and scoped spans, collected in a
//! thread-local registry and dumpable as JSON.
//!
//! The pass manager, the greedy rewrite driver, and the transform
//! interpreter all report here, which is what makes the repo's performance
//! claims observable: every benchmark number can be cross-checked
//! against the counters and per-pass/per-transform timings of the run that
//! produced it.
//!
//! The registry is thread-local so parallel test execution never mixes
//! streams and no locking sits on hot paths. Recording is unconditional —
//! one `BTreeMap` update per event, negligible next to the work the event
//! measures — so instrumented and uninstrumented runs behave identically.
//!
//! ```
//! use td_support::metrics;
//! metrics::reset();
//! metrics::counter("demo.widgets", 3);
//! let answer = metrics::time("demo.compute", || 6 * 7);
//! assert_eq!(answer, 42);
//! let snapshot = metrics::snapshot();
//! assert_eq!(snapshot.counter_value("demo.widgets"), Some(3));
//! assert!(snapshot.to_json().contains("\"demo.compute\""));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Aggregated statistics for one named timer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimerStat {
    /// Number of recorded intervals.
    pub count: u64,
    /// Total duration across all intervals, in nanoseconds.
    pub total_ns: u128,
    /// Shortest single interval, in nanoseconds (0 when no intervals).
    pub min_ns: u128,
    /// Longest single interval, in nanoseconds.
    pub max_ns: u128,
}

impl TimerStat {
    /// Arithmetic mean interval in nanoseconds (0 when no intervals).
    pub fn mean_ns(&self) -> u128 {
        if self.count == 0 {
            0
        } else {
            self.total_ns / u128::from(self.count)
        }
    }
}

/// Shared quantile semantics for the whole workspace: nearest-rank
/// percentile over an ascending-sorted sample. The benchmark's latency
/// percentiles and the histogram bucket walk both use this definition, so
/// a benchmark `job_ms_p95` and a `p95` derived from a [`Histogram`] mean
/// the same thing.
///
/// `p` is in percent (`50.0` = median). Empty input returns 0.
pub fn percentile_nearest_rank(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sub-bucket resolution of [`Histogram`]: each power-of-two octave is
/// split into `2^SUB_BITS` linear sub-buckets, bounding the relative
/// quantile error at `2^-SUB_BITS` (12.5% worst case, half that at bucket
/// midpoints) while keeping the bucket array a few hundred entries even
/// for multi-minute latencies.
const SUB_BITS: u32 = 3;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// A log-bucketed latency histogram: constant-time recording, bounded
/// relative error quantiles (p50/p90/p99/p999), and lossless merging
/// across worker lanes (bucket counts add element-wise).
///
/// Values are nanoseconds. Buckets follow the HDR scheme: values below
/// `2^SUB_BITS` are exact, larger values land in `2^SUB_BITS` linear
/// sub-buckets per power-of-two octave.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of all recorded values, in nanoseconds.
    pub total_ns: u128,
    /// Smallest recorded value (0 when empty).
    pub min_ns: u128,
    /// Largest recorded value.
    pub max_ns: u128,
    /// Bucket counts, grown lazily to the highest index observed.
    buckets: Vec<u64>,
}

/// Bucket index of value `v` (clamped to `u64::MAX` ns ≈ 584 years).
fn bucket_index(v: u128) -> usize {
    let v = v.min(u128::from(u64::MAX)) as u64;
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = (v >> (octave - SUB_BITS)) & (SUB_BUCKETS - 1);
    (((u64::from(octave) - u64::from(SUB_BITS) + 1) << SUB_BITS) + sub) as usize
}

/// Upper bound (inclusive, in ns) of bucket `index` — the value quantile
/// queries report for samples that landed in the bucket.
fn bucket_upper_bound(index: usize) -> u128 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return u128::from(index);
    }
    let group = index >> SUB_BITS;
    let sub = index & (SUB_BUCKETS - 1);
    let octave = group + u64::from(SUB_BITS) - 1;
    let base = 1u128 << octave;
    let width = 1u128 << (octave - u64::from(SUB_BITS));
    base + (u128::from(sub) + 1) * width - 1
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value (nanoseconds).
    pub fn observe(&mut self, ns: u128) {
        let index = bucket_index(ns);
        if self.buckets.len() <= index {
            self.buckets.resize(index + 1, 0);
        }
        self.buckets[index] += 1;
        self.min_ns = if self.count == 0 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Arithmetic mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u128 {
        if self.count == 0 {
            0
        } else {
            self.total_ns / u128::from(self.count)
        }
    }

    /// Nearest-rank quantile estimate in nanoseconds. `q` is in `[0, 1]`
    /// (0.999 = p999). The estimate is the upper bound of the bucket the
    /// ranked sample fell into, clamped into `[min_ns, max_ns]`, so the
    /// relative error is bounded by the bucket width (≤ 12.5%).
    pub fn quantile_ns(&self, q: f64) -> u128 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(index).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Merges `other` into `self` (bucket counts add element-wise — the
    /// merged quantiles are exactly those of the pooled sample).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, &theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.min_ns = if self.count == 0 {
            other.min_ns
        } else {
            self.min_ns.min(other.min_ns)
        };
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The histogram summary as one JSON object with a corpus-stable field
    /// order: `count`, `total_ns`, `min_ns`, `mean_ns`, `max_ns`, then the
    /// four standard percentiles `p50_ns`/`p90_ns`/`p99_ns`/`p999_ns`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"mean_ns\":{},\"max_ns\":{},\
             \"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}",
            self.count,
            self.total_ns,
            self.min_ns,
            self.mean_ns(),
            self.max_ns,
            self.quantile_ns(0.50),
            self.quantile_ns(0.90),
            self.quantile_ns(0.99),
            self.quantile_ns(0.999),
        )
    }
}

/// A snapshot (or live store) of all recorded metrics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    timers: BTreeMap<String, TimerStat>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty metrics store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name`.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Sets counter `name` to the maximum of its current value and `value`
    /// (a high-watermark gauge, e.g. peak live handle count).
    pub fn max_counter(&mut self, name: &str, value: u64) {
        let entry = self.counters.entry(name.to_owned()).or_insert(0);
        *entry = (*entry).max(value);
    }

    /// Records one timed interval of `ns` nanoseconds under `name`.
    pub fn add_timer_ns(&mut self, name: &str, ns: u128) {
        let stat = self.timers.entry(name.to_owned()).or_default();
        stat.min_ns = if stat.count == 0 {
            ns
        } else {
            stat.min_ns.min(ns)
        };
        stat.count += 1;
        stat.total_ns += ns;
        stat.max_ns = stat.max_ns.max(ns);
    }

    /// Records one value (nanoseconds) into histogram `name`.
    pub fn observe_ns(&mut self, name: &str, ns: u128) {
        self.histograms
            .entry(name.to_owned())
            .or_default()
            .observe(ns);
    }

    /// Current value of a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Current state of a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Current statistics of a timer.
    pub fn timer_stat(&self, name: &str) -> Option<TimerStat> {
        self.timers.get(name).copied()
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All timers, sorted by name.
    pub fn timers(&self) -> impl Iterator<Item = (&str, TimerStat)> {
        self.timers.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.timers.is_empty() && self.histograms.is_empty()
    }

    /// Merges `other` into `self` (counters add, timers aggregate,
    /// histogram buckets add element-wise — merged quantiles are exactly
    /// those of the pooled sample, which is what makes [`absorb`] across
    /// worker lanes sound).
    pub fn merge(&mut self, other: &Metrics) {
        for (name, &value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, stat) in &other.timers {
            let mine = self.timers.entry(name.clone()).or_default();
            if stat.count > 0 {
                mine.min_ns = if mine.count == 0 {
                    stat.min_ns
                } else {
                    mine.min_ns.min(stat.min_ns)
                };
            }
            mine.count += stat.count;
            mine.total_ns += stat.total_ns;
            mine.max_ns = mine.max_ns.max(stat.max_ns);
        }
        for (name, histogram) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge(histogram);
        }
    }

    /// Serializes the snapshot as a single JSON object:
    /// `{"counters": {...}, "timers": {"name": {"count", "total_ns",
    /// "min_ns", "mean_ns", "max_ns"}}, "histograms": {"name": {"count",
    /// "total_ns", "min_ns", "mean_ns", "max_ns", "p50_ns", "p90_ns",
    /// "p99_ns", "p999_ns"}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(name), value);
        }
        out.push_str("},\"timers\":{");
        for (i, (name, stat)) in self.timers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"mean_ns\":{},\"max_ns\":{}}}",
                json_string(name),
                stat.count,
                stat.total_ns,
                stat.min_ns,
                stat.mean_ns(),
                stat.max_ns
            );
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, histogram)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(name), histogram.to_json());
        }
        out.push_str("}}");
        out
    }
}

/// Escapes `s` as a JSON string literal (including the quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

thread_local! {
    static REGISTRY: RefCell<Metrics> = RefCell::new(Metrics::new());
}

/// Adds `delta` to the thread-local counter `name`.
pub fn counter(name: &str, delta: u64) {
    REGISTRY.with(|m| m.borrow_mut().add_counter(name, delta));
}

/// Raises the thread-local high-watermark counter `name` to at least `value`.
pub fn high_watermark(name: &str, value: u64) {
    REGISTRY.with(|m| m.borrow_mut().max_counter(name, value));
}

/// Records a timed interval under `name`.
pub fn timer_ns(name: &str, ns: u128) {
    REGISTRY.with(|m| m.borrow_mut().add_timer_ns(name, ns));
}

/// Records a latency sample into the thread-local histogram `name`.
pub fn observe(name: &str, ns: u128) {
    REGISTRY.with(|m| m.borrow_mut().observe_ns(name, ns));
}

/// Times `f` and records the interval under `name`.
pub fn time<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = f();
    timer_ns(name, start.elapsed().as_nanos());
    result
}

/// A scoped span: records its lifetime as a timer interval on drop.
///
/// ```
/// use td_support::metrics;
/// {
///     let _span = metrics::span("demo.scope");
///     // ... work ...
/// } // recorded here
/// assert!(metrics::snapshot().timer_stat("demo.scope").is_some());
/// ```
pub struct Span {
    name: String,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        timer_ns(&self.name, self.start.elapsed().as_nanos());
    }
}

/// Opens a scoped span named `name`.
pub fn span(name: &str) -> Span {
    Span {
        name: name.to_owned(),
        start: Instant::now(),
    }
}

/// A copy of the current thread's metrics.
pub fn snapshot() -> Metrics {
    REGISTRY.with(|m| m.borrow().clone())
}

/// Clears the current thread's metrics.
pub fn reset() {
    REGISTRY.with(|m| *m.borrow_mut() = Metrics::new());
}

/// Takes (returns and clears) the current thread's metrics.
pub fn take() -> Metrics {
    replace(Metrics::new())
}

/// Installs `metrics` as the current thread's registry and returns what it
/// replaced: [`take`] before a piece of work and `replace` after it scope
/// the work's samples at no cost in the size of the caller's registry.
pub fn replace(metrics: Metrics) -> Metrics {
    REGISTRY.with(|m| m.replace(metrics))
}

/// Merges a metrics snapshot recorded on another thread into the current
/// thread's registry (counters add, timers aggregate). Worker pools use
/// this so per-worker counters and timers survive worker-thread exit and
/// show up in the coordinator's `snapshot`.
pub fn absorb(other: &Metrics) {
    REGISTRY.with(|m| m.borrow_mut().merge(other));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_watermark() {
        let mut m = Metrics::new();
        m.add_counter("a", 2);
        m.add_counter("a", 3);
        m.max_counter("peak", 5);
        m.max_counter("peak", 4);
        assert_eq!(m.counter_value("a"), Some(5));
        assert_eq!(m.counter_value("peak"), Some(5));
        assert_eq!(m.counter_value("missing"), None);
    }

    #[test]
    fn timers_aggregate() {
        let mut m = Metrics::new();
        m.add_timer_ns("t", 10);
        m.add_timer_ns("t", 30);
        m.add_timer_ns("t", 20);
        let stat = m.timer_stat("t").unwrap();
        assert_eq!(stat.count, 3);
        assert_eq!(stat.total_ns, 60);
        assert_eq!(stat.min_ns, 10);
        assert_eq!(stat.mean_ns(), 20);
        assert_eq!(stat.max_ns, 30);
        assert_eq!(TimerStat::default().mean_ns(), 0);
    }

    #[test]
    fn merge_combines_stores() {
        let mut a = Metrics::new();
        a.add_counter("c", 1);
        a.add_timer_ns("t", 5);
        let mut b = Metrics::new();
        b.add_counter("c", 2);
        b.add_counter("d", 7);
        b.add_timer_ns("t", 9);
        a.merge(&b);
        assert_eq!(a.counter_value("c"), Some(3));
        assert_eq!(a.counter_value("d"), Some(7));
        assert_eq!(a.timer_stat("t").unwrap().count, 2);
        assert_eq!(a.timer_stat("t").unwrap().min_ns, 5);
        assert_eq!(a.timer_stat("t").unwrap().mean_ns(), 7);
        assert_eq!(a.timer_stat("t").unwrap().max_ns, 9);
    }

    #[test]
    fn merge_keeps_min_correct_across_empty_and_ordered_sides() {
        // A timer present on only one side must not let the other side's
        // default (0) poison the min.
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        b.add_timer_ns("only_b", 50);
        a.merge(&b);
        assert_eq!(a.timer_stat("only_b").unwrap().min_ns, 50);
        // And merging the smaller-min side second still wins.
        let mut c = Metrics::new();
        c.add_timer_ns("only_b", 8);
        a.merge(&c);
        assert_eq!(a.timer_stat("only_b").unwrap().min_ns, 8);
        assert_eq!(a.timer_stat("only_b").unwrap().max_ns, 50);
    }

    #[test]
    fn absorb_aggregates_min_mean_across_worker_lanes() {
        // Simulates the td-sched worker-pool flow: each worker thread
        // records into its own registry, `take()`s it at thread exit, and
        // the coordinator `absorb`s every lane.
        reset();
        let lanes: Vec<Metrics> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|lane| {
                    scope.spawn(move || {
                        reset();
                        timer_ns("job.apply", 100 * (lane as u128 + 1));
                        timer_ns("job.apply", 10 * (lane as u128 + 1));
                        take()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for lane in &lanes {
            absorb(lane);
        }
        let stat = snapshot().timer_stat("job.apply").unwrap();
        assert_eq!(stat.count, 8);
        assert_eq!(stat.min_ns, 10);
        assert_eq!(stat.max_ns, 400);
        // total = (100+10)*(1+2+3+4) = 1100; mean = 1100/8 = 137.
        assert_eq!(stat.total_ns, 1100);
        assert_eq!(stat.mean_ns(), 137);
        let json = snapshot().to_json();
        assert!(json.contains("\"min_ns\":10"));
        assert!(json.contains("\"mean_ns\":137"));
        reset();
    }

    #[test]
    fn histogram_buckets_are_contiguous_and_invertible() {
        // Every value must land in a bucket whose bounds contain it, and
        // consecutive values must never skip backwards over buckets.
        let mut last = 0usize;
        for v in 0u128..4096 {
            let index = bucket_index(v);
            assert!(index >= last, "bucket index regressed at {v}");
            assert!(
                bucket_upper_bound(index) >= v,
                "upper bound below value at {v}"
            );
            if index > 0 {
                assert!(
                    bucket_upper_bound(index - 1) < v,
                    "previous bucket still covers {v}"
                );
            }
            last = index;
        }
        // Large values clamp instead of overflowing.
        let _ = bucket_index(u128::MAX);
    }

    #[test]
    fn histogram_quantiles_track_the_sample() {
        let mut h = Histogram::new();
        for v in 1..=1000u128 {
            h.observe(v * 1000); // 1µs .. 1ms
        }
        assert_eq!(h.count, 1000);
        assert_eq!(h.min_ns, 1000);
        assert_eq!(h.max_ns, 1_000_000);
        // Log-bucketed estimates: within the 12.5% bucket-width bound.
        let within = |q: f64, exact: u128| {
            let est = h.quantile_ns(q);
            assert!(
                est >= exact && (est - exact) * 8 <= exact + 8,
                "q{q}: estimate {est} not within a bucket of exact {exact}"
            );
        };
        within(0.50, 500_000);
        within(0.90, 900_000);
        within(0.99, 990_000);
        within(0.999, 999_000);
        assert_eq!(h.quantile_ns(1.0), 1_000_000);
        assert_eq!(Histogram::new().quantile_ns(0.5), 0);
    }

    #[test]
    fn histogram_merge_pools_samples_exactly() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut pooled = Histogram::new();
        for v in 0..500u128 {
            a.observe(v * 7 + 3);
            pooled.observe(v * 7 + 3);
        }
        for v in 0..500u128 {
            b.observe(v * 13 + 100_000);
            pooled.observe(v * 13 + 100_000);
        }
        a.merge(&b);
        assert_eq!(a, pooled, "merge must equal recording the pooled sample");
        // Merging an empty histogram is a no-op.
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
        // Merging into an empty histogram copies.
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn metrics_carry_histograms_through_merge_and_json() {
        let mut a = Metrics::new();
        a.observe_ns("interp.step", 1_000);
        a.observe_ns("interp.step", 100_000);
        let mut b = Metrics::new();
        b.observe_ns("interp.step", 10_000);
        b.observe_ns("sched.job.run", 5_000);
        a.merge(&b);
        assert_eq!(a.histogram("interp.step").unwrap().count, 3);
        assert_eq!(a.histogram("sched.job.run").unwrap().count, 1);
        let json = a.to_json();
        assert!(json.contains("\"histograms\":{"), "dump: {json}");
        for field in ["\"p50_ns\":", "\"p90_ns\":", "\"p99_ns\":", "\"p999_ns\":"] {
            assert!(json.contains(field), "missing {field}: {json}");
        }
    }

    #[test]
    fn percentile_nearest_rank_matches_bench_semantics() {
        let sorted = vec![10, 20, 30, 40];
        assert_eq!(percentile_nearest_rank(&sorted, 50.0), 20);
        assert_eq!(percentile_nearest_rank(&sorted, 95.0), 40);
        assert_eq!(percentile_nearest_rank(&[7], 50.0), 7);
        assert_eq!(percentile_nearest_rank(&[], 50.0), 0);
    }

    #[test]
    fn observe_feeds_the_thread_local_registry() {
        reset();
        observe("lat", 123);
        observe("lat", 456);
        let snap = snapshot();
        assert_eq!(snap.histogram("lat").unwrap().count, 2);
        assert!(!snap.is_empty());
        reset();
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut m = Metrics::new();
        m.add_counter("quote\"key", 1);
        m.add_timer_ns("pass.canonicalize", 123);
        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"quote\\\"key\":1"));
        assert!(json.contains(
            "\"pass.canonicalize\":{\"count\":1,\"total_ns\":123,\"min_ns\":123,\
             \"mean_ns\":123,\"max_ns\":123}"
        ));
    }

    #[test]
    fn thread_local_registry_round_trips() {
        reset();
        counter("x", 4);
        let _ = time("y", || 1 + 1);
        {
            let _span = span("z");
        }
        let snap = snapshot();
        assert_eq!(snap.counter_value("x"), Some(4));
        assert!(snap.timer_stat("y").is_some());
        assert!(snap.timer_stat("z").is_some());
        let taken = take();
        assert_eq!(taken.counter_value("x"), Some(4));
        assert!(snapshot().is_empty());
    }
}
