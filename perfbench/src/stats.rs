//! Latency samples, percentiles and open-loop accounting.
//!
//! A failed request (an `err` reply, a timeout or a disconnect) stays in
//! the sample set as an infinite latency: it counts against the number
//! attempted and misses every latency limit, so failures can only make
//! a percentile worse.

use std::time::{Duration, Instant};

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples a tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// 0-based index of the nearest-rank `p`-th percentile among `n`
/// sorted samples (`n > 0`).
pub fn rank_index(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (99.9 / 100 · 10⁴ > 9990) from
    // pushing an exact rank up by one.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// How many of `n` samples lie beyond the `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank_index(n, p)
}

/// The highest of [`TAIL_PERCENTILES`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it; the maximum (100) when too few
/// samples leave even the median that many; `None` for no samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    let p = TAIL_PERCENTILES
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND);
    Some(p.unwrap_or(100.0))
}

/// Request latencies in seconds, plus failures.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    secs: Vec<f64>,
    failed: usize,
}

impl Samples {
    pub fn record(&mut self, d: Duration) {
        self.secs.push(d.as_secs_f64());
    }

    /// A request that failed: it was attempted and missed every limit.
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    pub fn attempted(&self) -> usize {
        self.secs.len() + self.failed
    }

    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Every attempt's latency, failures as `+inf`, ascending.
    fn sorted(&self) -> Vec<f64> {
        let mut all = self.secs.clone();
        all.extend(std::iter::repeat_n(f64::INFINITY, self.failed));
        all.sort_by(f64::total_cmp);
        all
    }

    /// Nearest-rank percentile over every attempt (`None` if empty).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let all = self.sorted();
        (!all.is_empty()).then(|| all[rank_index(all.len(), p)])
    }

    /// Mean over every attempt (`+inf` with any failure). Unlike the
    /// median, it moves smoothly with the share of time a host spends
    /// in a slow phase, so it repeats better from run to run.
    pub fn mean(&self) -> Option<f64> {
        if self.failed > 0 {
            return Some(f64::INFINITY);
        }
        (!self.secs.is_empty()).then(|| self.secs.iter().sum::<f64>() / self.secs.len() as f64)
    }

    /// `(p, value)` at the tail percentile this sample count supports.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let p = tail_percentile(self.attempted())?;
        Some((p, self.percentile(p)?))
    }

    /// Attempts that missed `limit`: slower ones and every failure.
    pub fn misses(&self, limit: Duration) -> usize {
        let limit = limit.as_secs_f64();
        self.secs.iter().filter(|&&s| s > limit).count() + self.failed
    }
}

/// Median of a non-empty set of values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The fixed send schedule of an open-loop client: request `i` is due
/// at `start + i · period`, whether or not earlier replies have come.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub period: Duration,
}

impl Schedule {
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.period * i as u32
    }
}

/// One open-loop request, timed from when it was due.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSample {
    /// Reply time minus due time: includes any wait a stall imposed.
    pub latency: Duration,
    /// Send time minus due time: how late the generator ran.
    pub late: Duration,
}

impl OpenSample {
    pub fn new(due: Instant, sent: Instant, done: Instant) -> OpenSample {
        OpenSample {
            latency: done.saturating_duration_since(due),
            late: sent.saturating_duration_since(due),
        }
    }
}
