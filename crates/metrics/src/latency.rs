//! Compute-time summaries and the CPU-load proxy of Table I.

use raceloc_core::{RunningStats, Summary};
use raceloc_obs::names;

/// Summarizes a series of per-call wall-clock durations (seconds).
pub fn latency_summary(durations_s: &[f64]) -> Summary {
    durations_s
        .iter()
        .copied()
        .collect::<RunningStats>()
        .summary()
}

/// The paper's "Load avg" proxy: percentage of one CPU core consumed by a
/// periodic task, `100 · duration · rate`.
///
/// # Examples
///
/// ```
/// use raceloc_metrics::latency::cpu_load_percent;
///
/// // 1.25 ms per scan at 40 Hz → 5% of a core.
/// let load = cpu_load_percent(1.25e-3, 40.0);
/// assert!((load - 5.0).abs() < 1e-9);
/// ```
pub fn cpu_load_percent(mean_duration_s: f64, rate_hz: f64) -> f64 {
    100.0 * mean_duration_s * rate_hz
}

/// Combined load of the correction task plus a prediction task running at a
/// different rate.
pub fn combined_load_percent(
    correct_mean_s: f64,
    correct_hz: f64,
    predict_mean_s: f64,
    predict_hz: f64,
) -> f64 {
    cpu_load_percent(correct_mean_s, correct_hz) + cpu_load_percent(predict_mean_s, predict_hz)
}

/// Load proxy computed directly from a recorded telemetry span.
pub fn span_load_percent(span: &raceloc_obs::SpanStat, rate_hz: f64) -> f64 {
    cpu_load_percent(span.mean_seconds(), rate_hz)
}

/// The closed-loop load of Table I computed from a telemetry snapshot: the
/// `sim.correct` span at the LiDAR rate plus the `sim.predict` span at the
/// odometry rate. Returns `None` when the snapshot holds neither span
/// (e.g. telemetry was disabled for the run).
pub fn snapshot_load_percent(
    snap: &raceloc_obs::Snapshot,
    lidar_hz: f64,
    odom_hz: f64,
) -> Option<f64> {
    let correct = snap
        .span(names::SIM_CORRECT.as_str())
        .map(|s| span_load_percent(s, lidar_hz));
    let predict = snap
        .span(names::SIM_PREDICT.as_str())
        .map(|s| span_load_percent(s, odom_hz));
    match (correct, predict) {
        (None, None) => None,
        (c, p) => Some(c.unwrap_or(0.0) + p.unwrap_or(0.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = latency_summary(&[1e-3, 2e-3, 3e-3]);
        assert!((s.mean - 2e-3).abs() < 1e-12);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1e-3);
        assert_eq!(s.max, 3e-3);
    }

    #[test]
    fn empty_summary() {
        let s = latency_summary(&[]);
        assert_eq!(s.count, 0);
    }

    #[test]
    fn load_scales_linearly() {
        assert_eq!(cpu_load_percent(0.01, 10.0), 10.0);
        assert_eq!(cpu_load_percent(0.0, 100.0), 0.0);
    }

    #[test]
    fn combined_load_adds() {
        let total = combined_load_percent(1e-3, 40.0, 0.5e-3, 50.0);
        assert!((total - (4.0 + 2.5)).abs() < 1e-9);
    }

    #[test]
    fn snapshot_load_matches_recorded_spans() {
        let tel = raceloc_obs::Telemetry::enabled();
        tel.record_span(names::SIM_CORRECT, 1.25e-3);
        tel.record_span(names::SIM_PREDICT, 0.5e-3);
        let snap = tel.snapshot();
        // 1.25 ms at 40 Hz (5%) + 0.5 ms at 50 Hz (2.5%).
        let load = snapshot_load_percent(&snap, 40.0, 50.0).expect("spans present");
        assert!((load - 7.5).abs() < 1e-9);

        let empty = raceloc_obs::Telemetry::enabled().snapshot();
        assert_eq!(snapshot_load_percent(&empty, 40.0, 50.0), None);
    }
}
