//! Hand-rolled log-linear latency histograms (the HdrHistogram shape):
//! constant memory, O(1) record, ≤ 1/16 relative bucket error — good
//! enough for p50/p99/p999 over millions of samples without keeping
//! them. [`LogHistogram`] is the single-writer form (merge-friendly,
//! used by the fleet driver's per-worker reports); [`AtomicHistogram`]
//! is the shared-writer form the server's metrics registry records
//! into from its worker threads.

use std::sync::atomic::{
    AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};

/// Sub-bucket resolution: each power-of-two range splits into 16
/// linear sub-buckets, bounding relative error at 1/16 (~6%).
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// Bucket count: 16 exact small-value buckets plus 16 sub-buckets for
/// each exponent 4..=63.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A fixed-size log-bucketed histogram of `u64` samples (nanoseconds,
/// here, though the scheme is unit-agnostic).
///
/// Values below 16 land in exact buckets; larger values share a bucket
/// with at most 1/16 relative spread, so quantile estimates are within
/// ~6% of the true sample — plenty for latency reporting, at 8 KiB per
/// histogram and no allocation after construction.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket holding `value`.
fn bucket_index(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let mantissa = (value >> (exp - SUB_BITS)) & (SUB - 1);
    (((exp - SUB_BITS + 1) as u64 * SUB) + mantissa) as usize
}

/// Inclusive lower bound of bucket `index` (the inverse of
/// [`bucket_index`] up to sub-bucket resolution).
fn bucket_low(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        return index;
    }
    let exp = index / SUB + SUB_BITS as u64 - 1;
    let mantissa = index % SUB;
    (SUB + mantissa) << (exp - SUB_BITS as u64)
}

/// Midpoint of bucket `index` — the value quantiles report.
fn bucket_mid(index: usize) -> u64 {
    let low = bucket_low(index);
    if (index as u64) < SUB {
        return low;
    }
    let width = bucket_low(index + 1).saturating_sub(low);
    low + width / 2
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all samples (kept at full width, so it cannot overflow).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of all samples (exact — the sum is kept at full width).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// The value at quantile `q` in `[0, 1]`, to bucket resolution
    /// (bucket midpoint, clamped to the observed min/max). 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_mid(index).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// The shared-writer sibling of [`LogHistogram`]: identical bucket
/// scheme, but every bucket is a relaxed [`AtomicU64`], so any number
/// of threads can [`AtomicHistogram::record`] concurrently through a
/// shared reference — lock-free and allocation-free, the contract the
/// serve path's stage timers rely on.
///
/// Reads go through [`AtomicHistogram::merge_into`], which folds the
/// bucket counts into a plain [`LogHistogram`]. Per-bucket counts are
/// monotone under concurrent recording (each is a single atomic), so
/// repeated snapshots never observe a count going backwards; the
/// `sum`/`min`/`max` companions are updated by separate operations and
/// may trail the bucket counts by in-flight samples — exact at
/// quiescence, advisory mid-flight. They never lead the counts: a
/// record publishes its companions (release) after its bucket count,
/// and a read loads the companions (acquire) before the counts, so a
/// snapshot with a zero count is all zeros.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free, allocation-free, `&self`.
    ///
    /// The running sum is kept in a `u64` (unlike the single-writer
    /// histogram's `u128` — there is no 128-bit atomic on stable);
    /// with nanosecond samples it wraps after ~584 years of recorded
    /// latency, which is beyond any server's lifetime.
    pub fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Release);
        self.min.fetch_min(value, Release);
        self.max.fetch_max(value, Release);
    }

    /// Number of recorded samples: the bucket counts summed, so the
    /// value is consistent with what [`AtomicHistogram::merge_into`]
    /// would fold out at the same instant.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Relaxed)).sum()
    }

    /// Folds this histogram's current contents into `out`.
    pub fn merge_into(&self, out: &mut LogHistogram) {
        // Companions first: every sample they include already has its
        // bucket count visible to the loads below.
        out.sum += u128::from(self.sum.load(Acquire));
        out.min = out.min.min(self.min.load(Acquire));
        out.max = out.max.max(self.max.load(Acquire));
        for (mine, theirs) in out.counts.iter_mut().zip(self.counts.iter()) {
            let theirs = theirs.load(Relaxed);
            *mine += theirs;
            out.total += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_mid(v as usize), v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn buckets_tile_the_domain_in_order() {
        // Lower bounds must be strictly increasing and round-trip
        // through bucket_index, so every u64 has exactly one bucket.
        let mut prev = 0;
        for index in 1..BUCKETS {
            let low = bucket_low(index);
            assert!(low > prev, "bucket {index} low {low} <= {prev}");
            assert_eq!(bucket_index(low), index);
            // The value just below this bucket belongs to the previous.
            assert_eq!(bucket_index(low - 1), index - 1);
            prev = low;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_bucket_error() {
        let mut h = LogHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.999, 99_900.0)] {
            let got = h.quantile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err <= 1.0 / 16.0 + 1e-9, "q{q}: got {got}, err {err}");
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 100_000);
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for v in 0..1_000u64 {
            let sample = v * v + 7;
            if v % 2 == 0 {
                a.record(sample);
            } else {
                b.record(sample);
            }
            whole.record(sample);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.mean(), whole.mean());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn atomic_matches_single_writer() {
        let atomic = AtomicHistogram::new();
        let mut plain = LogHistogram::new();
        for v in 0..1_000u64 {
            let sample = v * 31 + 5;
            atomic.record(sample);
            plain.record(sample);
        }
        assert_eq!(atomic.count(), plain.count());
        let mut folded = LogHistogram::new();
        atomic.merge_into(&mut folded);
        assert_eq!(folded.count(), plain.count());
        assert_eq!(folded.min(), plain.min());
        assert_eq!(folded.max(), plain.max());
        assert_eq!(folded.mean(), plain.mean());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(folded.quantile(q), plain.quantile(q));
        }
    }

    #[test]
    fn atomic_records_concurrently() {
        let atomic = std::sync::Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&atomic);
                std::thread::spawn(move || {
                    for v in 0..10_000u64 {
                        h.record(v * 4 + t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut folded = LogHistogram::new();
        atomic.merge_into(&mut folded);
        assert_eq!(folded.count(), 40_000);
        assert_eq!(folded.min(), 0);
        assert_eq!(folded.max(), 4 * 9_999 + 3);
    }

    #[test]
    fn atomic_empty_merge_is_identity() {
        let atomic = AtomicHistogram::new();
        let mut out = LogHistogram::new();
        atomic.merge_into(&mut out);
        assert_eq!(out.count(), 0);
        assert_eq!(out.min(), 0);
        assert_eq!(out.max(), 0);
    }
}
