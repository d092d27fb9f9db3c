//! Lock-free service metrics primitives: monotonic counters and
//! log-bucketed latency histograms.
//!
//! These back the `twig-serve` `/metrics` endpoint but live here because
//! they are generic: any long-running component that wants cheap,
//! contention-tolerant instrumentation can use them. Everything is plain
//! `std::sync::atomic` — no external metrics crate, matching the
//! workspace's no-dependency rule.
//!
//! Design notes:
//!
//! - Recording is wait-free (`fetch_add` with relaxed ordering). Metrics
//!   are statistics, not synchronization: a reader may observe a count
//!   and a sum from slightly different instants, which is fine for a
//!   monitoring endpoint and is the standard trade every production
//!   metrics library makes.
//! - The histogram uses power-of-two buckets (`le = 2^i`), so a recorded
//!   value costs one `leading_zeros` plus one `fetch_add` and the whole
//!   histogram is a fixed-size array — no allocation, no locking, no
//!   dynamic bucket boundaries to misconfigure.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter, safe to share between threads.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self { value: AtomicU64::new(0) }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        AtomicU64::load(&self.value, Ordering::Relaxed)
    }
}

/// Number of buckets in a [`LogHistogram`]: bucket `i` covers values in
/// `(2^(i-1), 2^i]` (bucket 0 covers `{0, 1}`),
/// so 40 buckets span microsecond latencies up to ~2^39 µs ≈ 6.4 days —
/// far beyond any request deadline this workspace will ever configure.
pub const LOG_BUCKETS: usize = 40;

/// A fixed-size histogram with exponentially growing bucket bounds,
/// intended for latency values in microseconds.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; LOG_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        // `[AtomicU64; 40]` has no `Default` impl (arrays stop at 32).
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index for `value`: 0 for 0 and 1, otherwise
/// `ceil(log2(value))`, clamped to the last bucket. This makes bucket
/// bounds *inclusive* (`value <= bucket_bound(index)`), the Prometheus
/// `le` convention — an exact power of two lands in the bucket whose
/// bound equals it.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        let ceil_log2 = 64 - (value - 1).leading_zeros() as usize;
        ceil_log2.min(LOG_BUCKETS - 1)
    }
}

/// The inclusive upper bound (`le`) of bucket `index`: `2^index`, with
/// the last bucket unbounded (`u64::MAX`).
#[must_use]
pub fn bucket_bound(index: usize) -> u64 {
    if index + 1 >= LOG_BUCKETS {
        u64::MAX
    } else {
        1u64 << index
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value` at the cost of one: a batch
    /// timed as a whole records its mean with its size as the count, so
    /// `count` still counts items, not batches.
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(value.saturating_mul(n), Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram. Buckets are returned
    /// cumulative (Prometheus `le` convention): entry `i` is the number
    /// of observations `<= bucket_bound(i)`.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = Vec::with_capacity(LOG_BUCKETS);
        let mut running = 0u64;
        for bucket in &self.buckets {
            running += bucket.load(Ordering::Relaxed);
            cumulative.push(running);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            cumulative,
        }
    }
}

/// A point-in-time view of a [`LogHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Cumulative observation counts per bucket (`len == LOG_BUCKETS`).
    pub cumulative: Vec<u64>,
}

impl HistogramSnapshot {
    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`) of the
    /// observations: the bound of the first bucket whose cumulative count
    /// reaches `ceil(q * count)`. Returns 0 for an empty histogram.
    /// Power-of-two buckets make this exact to within a factor of 2,
    /// which is the right resolution for alerting on latency percentiles.
    #[must_use]
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = crate::cast::f64_to_count_saturating(
            (q * crate::cast::count_to_f64(self.count)).ceil(),
        )
        .max(1);
        for (index, &cume) in self.cumulative.iter().enumerate() {
            if cume >= target {
                return bucket_bound(index);
            }
        }
        u64::MAX
    }

    /// Mean of the observations; 0 for an empty histogram.
    #[must_use]
    pub fn mean(&self) -> f64 {
        crate::cast::count_ratio(self.sum, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let counter = Counter::new();
        counter.inc();
        counter.add(41);
        assert_eq!(counter.get(), 42);
    }

    #[test]
    fn bucket_index_matches_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(u64::MAX), LOG_BUCKETS - 1);
        // Every value lands in a bucket whose bound covers it.
        for value in [0u64, 1, 2, 3, 7, 8, 9, 1000, 1 << 20, u64::MAX] {
            let index = bucket_index(value);
            assert!(value <= bucket_bound(index), "{value}");
            if index > 0 && index + 1 < LOG_BUCKETS {
                assert!(value > bucket_bound(index - 1), "{value}");
            }
        }
    }

    #[test]
    fn snapshot_is_cumulative() {
        let hist = LogHistogram::new();
        hist.record(1); // bucket 0
        hist.record(3); // bucket 2
        hist.record(3);
        hist.record(1 << 30); // bucket 30 (le = 2^30, inclusive)
        let snap = hist.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 1 + 3 + 3 + (1 << 30));
        assert_eq!(snap.cumulative[0], 1);
        assert_eq!(snap.cumulative[1], 1);
        assert_eq!(snap.cumulative[2], 3);
        assert_eq!(snap.cumulative[29], 3);
        assert_eq!(snap.cumulative[30], 4);
        assert_eq!(snap.cumulative[LOG_BUCKETS - 1], 4);
    }

    #[test]
    fn record_n_equals_n_records() {
        let batched = LogHistogram::new();
        let single = LogHistogram::new();
        for (value, n) in [(0u64, 3u64), (5, 8), (1 << 30, 2), (7, 0)] {
            batched.record_n(value, n);
            for _ in 0..n {
                single.record(value);
            }
        }
        assert_eq!(batched.snapshot(), single.snapshot());
        assert_eq!(batched.snapshot().count, 13);
        // The sum saturates instead of wrapping.
        let huge = LogHistogram::new();
        huge.record_n(u64::MAX, 2);
        assert_eq!(huge.snapshot().sum, u64::MAX);
    }

    #[test]
    fn quantile_bounds_bracket_the_data() {
        let hist = LogHistogram::new();
        for _ in 0..90 {
            hist.record(100); // bucket le=128
        }
        for _ in 0..10 {
            hist.record(10_000); // bucket le=16384
        }
        let snap = hist.snapshot();
        assert_eq!(snap.quantile_bound(0.5), 128);
        assert_eq!(snap.quantile_bound(0.9), 128);
        assert_eq!(snap.quantile_bound(0.99), 16384);
        assert_eq!(snap.quantile_bound(1.0), 16384);
        assert!((snap.mean() - 1090.0).abs() < 1e-9);
        assert_eq!(
            HistogramSnapshot { count: 0, sum: 0, cumulative: vec![0; LOG_BUCKETS] }
                .quantile_bound(0.5),
            0
        );
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let hist = Arc::new(LogHistogram::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let hist = Arc::clone(&hist);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    hist.record(t * 1000 + i);
                }
            }));
        }
        for handle in handles {
            handle.join().expect("recorder thread");
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.cumulative[LOG_BUCKETS - 1], 4000);
    }
}
