//! Exact order statistics over raw per-call samples, and the serve
//! capacity rule.
//!
//! Every timing the benchmark reports comes from the full list of raw
//! samples (never from log-bucket histograms), summarised as the median
//! plus the highest percentile that still has at least
//! [`TAIL_MIN_BEYOND`] samples beyond it.

/// Samples that must lie strictly above a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of all samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), p)?;
    sorted.get(rank - 1).copied()
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond its rank.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| nearest_rank(n, p).is_some_and(|r| n - r >= TAIL_MIN_BEYOND))
}

/// Median and tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// Which percentile `tail` is (see [`tail_percentile`]); `None` when
    /// fewer than eleven samples exist.
    pub tail_pct: Option<f64>,
    /// The tail value; the maximum stands in when `tail_pct` is `None`.
    pub tail: f64,
}

impl Summary {
    /// Summarises raw samples (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let p50 = percentile(&sorted, 50.0)?;
        let tail_pct = tail_percentile(n);
        let max = *sorted.last()?;
        let tail = tail_pct.and_then(|p| percentile(&sorted, p)).unwrap_or(max);
        Some(Self {
            n,
            p50,
            tail_pct,
            tail,
        })
    }

    /// `"p99"`-style label of the tail.
    pub fn tail_label(&self) -> String {
        match self.tail_pct {
            Some(p) => format!("p{p}"),
            None => "max".to_string(),
        }
    }
}

/// Median of raw samples (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.p50)
}

/// One fixed-rate phase of an open-loop serve run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePhase {
    /// The scheduled request rate \[req/s\].
    pub offered_rps: f64,
    /// Requests answered per wall second over the phase.
    pub achieved_rps: f64,
    /// Tail request latency \[µs\], timed from each request's due time.
    pub tail_us: f64,
    /// Requests still unanswered when the phase's last request fell due.
    pub backlog_at_end: usize,
}

impl RatePhase {
    /// Whether the queue grew over the phase: more requests were waiting
    /// at its end than arrive within one latency limit.
    pub fn backlog_growing(&self, limit_us: f64) -> bool {
        self.backlog_at_end as f64 > (self.offered_rps * limit_us * 1e-6).max(1.0)
    }
}

/// The highest sustained rate: the achieved rate of the fastest phase
/// whose tail latency stays within `limit_us` without a growing backlog.
/// `0.0` when no phase qualifies.
pub fn sustained_rps(phases: &[RatePhase], limit_us: f64) -> f64 {
    phases
        .iter()
        .filter(|p| p.tail_us <= limit_us && !p.backlog_growing(limit_us))
        .map(|p| p.achieved_rps)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Odd count: the true middle; even count: the lower middle.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // p99 needs 1000 samples: rank 990 leaves exactly ten above it.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                let rank = nearest_rank(n, p).unwrap();
                assert!(n - rank >= TAIL_MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn summary_is_order_independent() {
        let mut s = ramp(2000);
        s.reverse();
        let sum = Summary::of(&s).unwrap();
        assert_eq!(sum.n, 2000);
        assert_eq!(sum.p50, 1000.0);
        assert_eq!(sum.tail_pct, Some(99.0));
        assert_eq!(sum.tail, 1980.0);
        assert_eq!(sum.tail_label(), "p99");
        let few = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(few.tail, 3.0);
        assert_eq!(few.tail_label(), "max");
        assert!(Summary::of(&[]).is_none());
    }

    fn phase(offered: f64, achieved: f64, tail_us: f64, backlog: usize) -> RatePhase {
        RatePhase {
            offered_rps: offered,
            achieved_rps: achieved,
            tail_us,
            backlog_at_end: backlog,
        }
    }

    #[test]
    fn sustained_rate_takes_fastest_passing_phase() {
        let limit = 25_000.0;
        let phases = [
            phase(1000.0, 999.0, 2_000.0, 0),
            phase(1600.0, 1598.0, 9_000.0, 3),
            phase(2400.0, 2000.0, 400_000.0, 900),
        ];
        assert_eq!(sustained_rps(&phases, limit), 1598.0);
    }

    #[test]
    fn sustained_rate_rejects_latency_and_backlog_failures() {
        let limit = 25_000.0;
        // Tail over the limit disqualifies even a keeping-up phase.
        let slow = [phase(1000.0, 1000.0, 30_000.0, 0)];
        assert_eq!(sustained_rps(&slow, limit), 0.0);
        // A growing backlog disqualifies a phase whose tail still passes:
        // 1000 req/s × 25 ms = 25 requests may wait at the end, not 26.
        let growing = [phase(1000.0, 990.0, 24_000.0, 26)];
        assert_eq!(sustained_rps(&growing, limit), 0.0);
        let steady = [phase(1000.0, 990.0, 24_000.0, 25)];
        assert_eq!(sustained_rps(&steady, limit), 990.0);
        assert_eq!(sustained_rps(&[], limit), 0.0);
    }
}
