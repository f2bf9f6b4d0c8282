//! Order statistics and the seeded arrival schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples a percentile must leave above it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `v` (mean of the two middle values for even lengths);
/// `NaN` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank `p`-th percentile (`p` in `(0, 100]`), or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it — a tail
/// percentile read from fewer samples is one outlier, not a tail.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    let n = v.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank < TAIL_SAMPLES && p > 50.0 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

/// The highest percentile that still has [`TAIL_SAMPLES`] samples
/// beyond it, with its value: `p = 100·(n − 10)/n`, read at nearest
/// rank `n − 10`. `None` below 11 samples.
pub fn tail_percentile(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let p = 100.0 * (n - TAIL_SAMPLES) as f64 / n as f64;
    Some((p, s[n - TAIL_SAMPLES - 1]))
}

/// Absolute due times, in seconds from the start of a step, of a
/// Poisson arrival process at `rate_hz` over `duration_s`. The same
/// `(seed, rate, duration)` always gives the same schedule, and due
/// times are fixed up front, so a stalled generator cannot stretch the
/// schedule: it falls behind it and the lag shows.
pub fn due_times(seed: u64, rate_hz: f64, duration_s: f64) -> Vec<f64> {
    assert!(rate_hz > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity((rate_hz * duration_s * 1.2) as usize + 8);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen::<f64>();
        t += -(1.0 - u).ln() / rate_hz;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}
