//! A lock-free log-linear latency histogram.
//!
//! Values (nanoseconds, but any `u64` unit works) are binned into
//! power-of-two decades, each split into [`SUB`] linear sub-buckets — the
//! HdrHistogram layout. Recording is a handful of `Relaxed` atomic adds:
//! no lock, no allocation, no CAS loop, so concurrent recorders on the
//! serve hot path never contend beyond cache-line traffic.
//!
//! The layout bounds the **relative error** of any reported quantile: a
//! bucket covering `[lo, lo + w - 1]` always has `w <= lo / SUB`, so the
//! bucket's upper bound overstates any member by at most `1/SUB`
//! (3.125% with `SUB = 32`). Values below `SUB` are exact.
//!
//! [`Snapshot`]s are plain vectors: mergeable by bucket-wise addition,
//! which is what lets a router sum the histograms of N backends into one
//! cluster-wide distribution without losing tail resolution.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-buckets per power-of-two decade (`2^SUB_BITS`).
pub const SUB_BITS: u32 = 5;
/// Linear sub-buckets per decade; also the inverse of the relative error
/// bound (1/32 = 3.125%).
pub const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range: one linear decade
/// for values below [`SUB`] plus `64 - SUB_BITS` log-linear decades.
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// Index of the bucket holding `value`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    (((shift + 1) as u64 * SUB) + ((value >> shift) - SUB)) as usize
}

/// Smallest value landing in bucket `index`.
#[inline]
pub fn bucket_low(index: usize) -> u64 {
    let i = index as u64;
    if i < SUB {
        return i;
    }
    let decade = i / SUB;
    let sub = i % SUB;
    (SUB + sub) << (decade - 1)
}

/// Largest value landing in bucket `index` — the `le` bound the
/// exposition renders, and the value quantiles report.
#[inline]
pub fn bucket_high(index: usize) -> u64 {
    let i = index as u64;
    if i < SUB {
        return i;
    }
    let decade = i / SUB;
    bucket_low(index) + ((1u64 << (decade - 1)) - 1)
}

/// A concurrent log-linear histogram. `record` is lock-free (relaxed
/// atomics only); `snapshot` is wait-free for recorders.
#[derive(Debug)]
pub struct LatencyHisto {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHisto {
    /// An empty histogram (~15 KiB of zeroed counters).
    pub fn new() -> LatencyHisto {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        LatencyHisto {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. Lock-free: five relaxed atomic RMWs.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds, saturating instead of silently
    /// truncating durations beyond ~584 years.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values — with [`LatencyHisto::count`], the mean is
    /// derivable without materializing a snapshot.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy. Concurrent recorders are never blocked; a
    /// snapshot taken mid-record may be off by the in-flight value, which
    /// the next snapshot includes.
    pub fn snapshot(&self) -> Snapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        Snapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An owned, mergeable copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Per-bucket counts, indexed by [`bucket_index`].
    pub buckets: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (same unit as the values).
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for Snapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl Snapshot {
    /// A snapshot with nothing recorded.
    pub fn empty() -> Snapshot {
        Snapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Folds `other` into `self` bucket-wise: the result is exactly the
    /// histogram that one recorder seeing both streams would have built.
    /// Counts saturate rather than wrap — merged snapshots may come from
    /// parsed, peer-supplied scrapes.
    pub fn merge(&mut self, other: &Snapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank, reported as the
    /// upper bound of the bucket holding that rank (clamped to the true
    /// max). Within `1/SUB` of the exact order statistic; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Arithmetic mean, 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_low(v as usize), v);
            assert_eq!(bucket_high(v as usize), v);
        }
    }

    #[test]
    fn buckets_tile_the_u64_range_contiguously() {
        // Each bucket's low is the previous bucket's high + 1.
        for i in 1..BUCKETS {
            assert_eq!(
                bucket_low(i),
                bucket_high(i - 1) + 1,
                "gap or overlap at bucket {i}"
            );
        }
        assert_eq!(bucket_high(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn every_value_lands_inside_its_bucket_bounds() {
        let probes = [
            0,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            65_535,
            65_536,
            1_000_000_007,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in probes {
            let i = bucket_index(v);
            assert!(bucket_low(i) <= v && v <= bucket_high(i), "value {v}");
        }
    }

    #[test]
    fn relative_error_is_bounded_by_one_over_sub() {
        for v in [33u64, 100, 999, 12_345, 1 << 40, u64::MAX / 3] {
            let i = bucket_index(v);
            let err = (bucket_high(i) - v) as f64 / v as f64;
            assert!(err <= 1.0 / SUB as f64, "value {v} error {err}");
        }
    }

    #[test]
    fn quantiles_of_a_known_stream_are_close() {
        let h = LatencyHisto::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        let tol = 1.0 + 1.0 / SUB as f64;
        assert!((s.p50() as f64) <= 5_000.0 * tol && s.p50() >= 5_000);
        assert!((s.p99() as f64) <= 9_900.0 * tol && s.p99() >= 9_900);
        assert!((s.p999() as f64) <= 9_990.0 * tol && s.p999() >= 9_990);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10_000);
        // Mean of 1..=10_000.
        assert_eq!(s.mean(), 5_000);
    }

    #[test]
    fn merge_equals_recording_both_streams() {
        let a = LatencyHisto::new();
        let b = LatencyHisto::new();
        let both = LatencyHisto::new();
        for v in [3u64, 77, 1_000, 40_000] {
            a.record(v);
            both.record(v);
        }
        for v in [5u64, 77, 2_000_000] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(LatencyHisto::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 500);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 40_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 40_000);
    }

    #[test]
    fn duration_recording_saturates_instead_of_truncating() {
        let h = LatencyHisto::new();
        // ~2^64 ns * 10: the old `as_nanos() as u64` cast would wrap to a
        // tiny value; saturating keeps it in the top bucket.
        h.record_duration(Duration::from_secs(u64::MAX / 1_000_000_000 + 10));
        assert_eq!(h.snapshot().max, u64::MAX);
    }
}
