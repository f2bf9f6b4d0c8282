//! Service counters and latency accounting.
//!
//! All counters are lock-free atomics so workers never contend on
//! bookkeeping. Latencies go into a fixed-size log-linear histogram of
//! atomic counters: recording is one `fetch_add`, a snapshot scans a
//! fixed number of buckets, and memory stays flat however long the
//! service runs.

use crate::config::ServiceLevel;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Live counters for a running service. Obtain a consistent copy with
/// [`ServeMetrics::snapshot`].
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests accepted into the queue.
    pub submitted: AtomicU64,
    /// Requests answered with a prediction.
    pub completed: AtomicU64,
    /// Submissions rejected by queue-full backpressure.
    pub rejected_full: AtomicU64,
    /// Requests shed for priority under the shedding level.
    pub shed_priority: AtomicU64,
    /// Requests dropped because their deadline expired pre-execution.
    pub expired: AtomicU64,
    /// Batch executions that panicked.
    pub batch_panics: AtomicU64,
    /// Worker state rebuilds after a panic (fresh model clone).
    pub worker_respawns: AtomicU64,
    /// Requests retried individually after a batch panic.
    pub isolation_retries: AtomicU64,
    /// Requests that failed with a pinned worker panic.
    pub poisoned_failed: AtomicU64,
    /// Fused batches executed.
    pub batches: AtomicU64,
    /// Requests served through fused batches (sum of batch sizes).
    pub batched_requests: AtomicU64,
    /// Successful hot swaps.
    pub swaps: AtomicU64,
    /// Hot-swap candidates rejected and rolled back.
    pub swap_rollbacks: AtomicU64,
    /// Degradation-ladder transitions, counted per target level
    /// (indexed by [`ServiceLevel::index`]).
    pub level_entries: [AtomicU64; 3],
    /// Largest queue depth observed at dispatch.
    pub max_queue_depth: AtomicU64,
    latencies: LatencyHistogram,
}

impl ServeMetrics {
    /// Records one end-to-end (submit → response) latency.
    pub fn record_latency(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.latencies.record(us);
    }

    /// Records a ladder transition into `level`.
    pub fn record_level_entry(&self, level: ServiceLevel) {
        self.level_entries[level.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the observed max queue depth to at least `depth`.
    pub fn observe_queue_depth(&self, depth: usize) {
        self.max_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// A consistent point-in-time copy of every counter plus latency
    /// percentiles.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let lat = self.latencies.counts();
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            shed_priority: self.shed_priority.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            batch_panics: self.batch_panics.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            isolation_retries: self.isolation_retries.load(Ordering::Relaxed),
            poisoned_failed: self.poisoned_failed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            swap_rollbacks: self.swap_rollbacks.load(Ordering::Relaxed),
            level_entries: [
                self.level_entries[0].load(Ordering::Relaxed),
                self.level_entries[1].load(Ordering::Relaxed),
                self.level_entries[2].load(Ordering::Relaxed),
            ],
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            p50_latency_us: lat.percentile(50.0),
            p99_latency_us: lat.percentile(99.0),
            latency_samples: lat.total,
        }
    }
}

/// Values below `2^EXACT_BITS` = 128 µs get a bucket each (exact).
const EXACT_BITS: u32 = 7;
const EXACT_US: usize = 1 << EXACT_BITS;
/// Each octave `[2^k, 2^(k+1))` from there up is split into
/// `2^SUB_BITS` equal buckets, each at most 1/64 of its lower edge wide.
const SUB_BITS: u32 = 6;
/// Total bucket count: the exact range plus one set per octave up to
/// `[2^63, 2^64)`.
const LATENCY_BUCKETS: usize = EXACT_US + ((64 - EXACT_BITS as usize) << SUB_BITS);

/// Bucket holding `us`.
fn bucket_index(us: u64) -> usize {
    if us < EXACT_US as u64 {
        return us as usize;
    }
    let msb = 63 - us.leading_zeros();
    let sub = (us >> (msb - SUB_BITS)) as usize - (1 << SUB_BITS);
    EXACT_US + (((msb - EXACT_BITS) as usize) << SUB_BITS) + sub
}

/// The value a bucket reports: itself in the exact range, the bucket's
/// midpoint above it. A sample in a bucket `[lo, lo + w)` with
/// `w <= lo / 64` is thus reported within `w / 2 <= lo / 128`, under
/// 1% relative error.
fn bucket_value(index: usize) -> u64 {
    if index < EXACT_US {
        return index as u64;
    }
    let j = index - EXACT_US;
    let shift = (j >> SUB_BITS) as u32 + EXACT_BITS - SUB_BITS;
    let lo = (((1 << SUB_BITS) + (j & ((1 << SUB_BITS) - 1))) as u64) << shift;
    lo + (1u64 << shift) / 2
}

/// Fixed-size, lock-free, log-linear latency histogram (microseconds).
///
/// Exact below 128 µs; above, each reported percentile lies within 1%
/// of the exact nearest-rank sample. Its size never changes after
/// construction.
struct LatencyHistogram {
    counts: Box<[AtomicU64]>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: (0..LATENCY_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("samples", &self.counts().total)
            .finish()
    }
}

impl LatencyHistogram {
    /// Counts one sample of `us` microseconds.
    fn record(&self, us: u64) {
        self.counts[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    fn counts(&self) -> HistogramCounts {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        HistogramCounts {
            total: counts.iter().sum(),
            counts,
        }
    }
}

/// Bucket counts copied out of a [`LatencyHistogram`].
#[derive(Debug, Clone)]
struct HistogramCounts {
    counts: Vec<u64>,
    /// Samples counted (exact).
    total: u64,
}

impl HistogramCounts {
    /// Nearest-rank percentile (`p` in `[0, 100]`) in microseconds; 0
    /// for an empty histogram.
    fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_value(index);
            }
        }
        bucket_value(LATENCY_BUCKETS - 1)
    }
}

/// Point-in-time copy of [`ServeMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered with a prediction.
    pub completed: u64,
    /// Submissions rejected by queue-full backpressure.
    pub rejected_full: u64,
    /// Requests shed for priority under the shedding level.
    pub shed_priority: u64,
    /// Requests dropped on an expired deadline, pre-execution.
    pub expired: u64,
    /// Batch executions that panicked.
    pub batch_panics: u64,
    /// Worker state rebuilds after a panic.
    pub worker_respawns: u64,
    /// Requests retried individually after a batch panic.
    pub isolation_retries: u64,
    /// Requests failed with a pinned worker panic.
    pub poisoned_failed: u64,
    /// Fused batches executed.
    pub batches: u64,
    /// Requests served through fused batches.
    pub batched_requests: u64,
    /// Successful hot swaps.
    pub swaps: u64,
    /// Rejected, rolled-back hot swaps.
    pub swap_rollbacks: u64,
    /// Ladder transitions per target level.
    pub level_entries: [u64; 3],
    /// Largest queue depth observed at dispatch.
    pub max_queue_depth: u64,
    /// Median end-to-end latency, microseconds.
    pub p50_latency_us: u64,
    /// 99th-percentile end-to-end latency, microseconds.
    pub p99_latency_us: u64,
    /// Latency samples recorded.
    pub latency_samples: u64,
}

impl MetricsSnapshot {
    /// Mean fused-batch size, 0.0 before any batch ran.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Total degradation-ladder transitions.
    pub fn total_transitions(&self) -> u64 {
        self.level_entries.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Exact nearest-rank percentile of raw samples: the reference the
    /// histogram is pinned against.
    fn percentile_us(samples: &[u64], p: f64) -> u64 {
        if samples.is_empty() {
            return 0;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile_us(&[], 99.0), 0);
        assert_eq!(percentile_us(&[7], 50.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&v, 50.0), 50);
        assert_eq!(percentile_us(&v, 99.0), 99);
        assert_eq!(percentile_us(&v, 100.0), 100);
    }

    #[test]
    fn snapshot_reflects_counters() {
        let m = ServeMetrics::default();
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.completed.fetch_add(2, Ordering::Relaxed);
        m.batches.fetch_add(1, Ordering::Relaxed);
        m.batched_requests.fetch_add(2, Ordering::Relaxed);
        m.record_latency(Duration::from_micros(40));
        m.record_latency(Duration::from_micros(60));
        m.record_level_entry(ServiceLevel::Shedding);
        m.observe_queue_depth(5);
        m.observe_queue_depth(3);
        let s = m.snapshot();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.completed, 2);
        assert_eq!(s.mean_batch_size(), 2.0);
        assert_eq!(s.level_entries[ServiceLevel::Shedding.index()], 1);
        assert_eq!(s.total_transitions(), 1);
        assert_eq!(s.max_queue_depth, 5);
        assert_eq!(s.p50_latency_us, 40);
        assert_eq!(s.p99_latency_us, 60);
        assert_eq!(s.latency_samples, 2);
    }

    #[test]
    fn buckets_tile_the_range_exactly_below_128_us() {
        for us in 0..EXACT_US as u64 {
            assert_eq!(bucket_value(bucket_index(us)), us);
        }
        let mut last = 0;
        for us in (0..20).flat_map(|k| [(1u64 << (7 + 2 * k)) - 1, 1 << (7 + 2 * k)]) {
            let index = bucket_index(us);
            assert!(index >= last && index < LATENCY_BUCKETS);
            last = index;
            let rel = bucket_value(index).abs_diff(us) as f64 / us.max(1) as f64;
            assert!(rel < 0.01, "{us} µs reported as {}", bucket_value(index));
        }
        assert_eq!(bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
        assert!(bucket_value(LATENCY_BUCKETS - 1) > 1 << 63);
    }

    #[test]
    fn million_records_keep_size_and_track_the_exact_sort() {
        let h = LatencyHistogram::default();
        let bytes = std::mem::size_of_val(&*h.counts);
        let mut rng = StdRng::seed_from_u64(5);
        // Log-uniform over 1 µs .. ~1 s: every region of the histogram.
        let samples: Vec<u64> = (0..1_000_000)
            .map(|_| (2f64.powf(rng.gen::<f64>() * 20.0)) as u64)
            .collect();
        for &us in &samples {
            h.record(us);
        }
        assert_eq!(h.counts.len(), LATENCY_BUCKETS);
        assert_eq!(std::mem::size_of_val(&*h.counts), bytes);
        let counts = h.counts();
        assert_eq!(counts.total, 1_000_000);
        for p in [50.0, 99.0] {
            let exact = percentile_us(&samples, p) as f64;
            let got = counts.percentile(p) as f64;
            assert!(
                (got - exact).abs() <= 0.01 * exact,
                "p{p}: histogram {got} vs exact {exact}"
            );
        }
    }
}
