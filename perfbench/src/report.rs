//! Metric collection, the human-readable listing, and the one-line JSON
//! result.

use crate::stats::Summary;
use raceloc_obs::Json;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
    /// Sample count behind the value, when it summarises samples.
    pub n: Option<usize>,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// The tracked end-to-end metrics (names of `BENCHMARK.json`).
    pub e2e: Vec<Metric>,
    /// The tracked per-layer metrics (traced runs).
    pub layer: Vec<Metric>,
    /// Workload-specific detail, printed but not tracked.
    pub detail: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (see the workload for what counts).
    pub failed: u64,
    /// Corrections slower than the 25 ms scan period. They count in the
    /// printed `fail_frac` but not in the result line's `failed`: a miss
    /// depends on the host's scheduling, not on the program's output, so
    /// it varies between runs of the same inputs.
    pub slow: u64,
    /// Failed correctness checks, one line each.
    pub violations: Vec<String>,
}

fn metric(name: &str, value: f64, unit: &'static str, n: Option<usize>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        n,
    }
}

impl Report {
    /// Adds a tracked end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, n: Option<usize>) {
        self.e2e.push(metric(name, value, unit, n));
    }

    /// Adds a tracked per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, n: Option<usize>) {
        self.layer.push(metric(name, value, unit, n));
    }

    /// Adds a tracked end-to-end metric: the median of raw samples.
    pub fn e2e_p50(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.e2e(name, s.map_or(0.0, |s| s.p50), unit, s.map(|s| s.n));
    }

    /// Adds a per-layer metric: the median of raw samples (0 without any).
    pub fn layer_p50(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.layer(name, s.map_or(0.0, |s| s.p50), unit, s.map(|s| s.n));
    }

    /// Adds a per-layer metric: the tail of raw samples, the highest
    /// percentile with ten samples beyond it (0 without any).
    pub fn layer_tail(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.layer(name, s.map_or(0.0, |s| s.tail), unit, s.map(|s| s.n));
    }

    /// Adds an untracked detail metric.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, n: Option<usize>) {
        self.detail.push(metric(name, value, unit, n));
    }

    /// Adds `<prefix>_p50<suffix>` and `<prefix>_p99<suffix>` detail
    /// metrics from raw samples; the tail is the highest percentile with
    /// ten samples beyond it, named by its percentile when that is not 99.
    pub fn detail_timing(&mut self, prefix: &str, suffix: &str, unit: &'static str, s: &[f64]) {
        if let Some(sum) = Summary::of(s) {
            self.detail(&format!("{prefix}_p50{suffix}"), sum.p50, unit, Some(sum.n));
            self.detail(
                &format!("{prefix}_{}{suffix}", sum.tail_label()),
                sum.tail,
                unit,
                Some(sum.n),
            );
        }
    }

    /// Adds `obs.trace_overhead_frac`: the untraced headline rate over the
    /// traced one, minus one (0 when nothing traced was measured).
    pub fn trace_overhead(&mut self, untraced_rate: f64, traced_rate: f64) {
        let frac = if traced_rate > 0.0 {
            untraced_rate / traced_rate - 1.0
        } else {
            0.0
        };
        self.layer("obs.trace_overhead_frac", frac, "ratio", None);
    }

    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Prints every metric by name with its unit and sample count.
    pub fn print_listing(&self, workload: &str, trace: bool) {
        println!(
            "workload {workload} ({})",
            if trace { "traced" } else { "untraced" }
        );
        let sections: [(&str, &[Metric]); 3] = [
            ("end-to-end", &self.e2e),
            ("per-layer", &self.layer),
            ("detail", &self.detail),
        ];
        for (title, list) in sections {
            if list.is_empty() {
                continue;
            }
            println!("  {title}:");
            for m in list {
                let n = m.n.map_or(String::new(), |n| format!("  n={n}"));
                println!("    {:<34} {:>14.4} {:<6}{n}", m.name, m.value, m.unit);
            }
        }
        let frac = (self.failed + self.slow) as f64 / self.attempted.max(1) as f64;
        println!(
            "  fail_frac {:.6} ratio ({} failed + {} over the scan period / {} attempted)",
            frac, self.failed, self.slow, self.attempted
        );
        for v in &self.violations {
            println!("  CHECK FAILED: {v}");
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the tracked
    /// metrics of the run's mode.
    pub fn result_json(&self, trace: bool) -> String {
        let list = if trace { &self.layer } else { &self.e2e };
        let metrics = list
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::num(m.value)),
                    ("unit".into(), Json::Str(m.unit.to_string())),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.violations.is_empty())),
            ("attempted".into(), Json::num(self.attempted as f64)),
            ("failed".into(), Json::num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string()
    }
}
