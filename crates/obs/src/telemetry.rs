//! Span timers, counters, and the [`Telemetry`] handle that carries them.
//!
//! Design goals, in order:
//!
//! 1. **Disabled is (almost) free.** A default handle holds `None` and every
//!    call is one branch — hot paths (`SynPf::correct`, batch ray casting,
//!    `World` stepping) can stay instrumented unconditionally.
//! 2. **Cheap to thread through.** `Telemetry` is `Clone + Send + Sync`
//!    (an `Option<Arc<Mutex<..>>>`), so sim, localizer, and range caster can
//!    all share one registry without lifetime plumbing.
//! 3. **Deterministic reporting.** Registries are `BTreeMap`s, so snapshots
//!    iterate in stable name order and report output is diffable.
//!
//! Span durations are double-booked: into a [`SpanStat`] (count/total/min/
//! max/last for quick means) and into a same-named latency [`Histogram`]
//! (for tail quantiles à la Table III).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::hist::Histogram;
use crate::names::{CounterName, SpanName};
use crate::Stopwatch;

/// Aggregate statistics for one named span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanStat {
    /// Number of completed spans.
    pub count: u64,
    /// Sum of all span durations \[s\].
    pub total_seconds: f64,
    /// Shortest observed duration \[s\].
    pub min_seconds: f64,
    /// Longest observed duration \[s\].
    pub max_seconds: f64,
    /// Duration of the most recent span \[s\].
    pub last_seconds: f64,
}

impl SpanStat {
    fn new(seconds: f64) -> Self {
        Self {
            count: 1,
            total_seconds: seconds,
            min_seconds: seconds,
            max_seconds: seconds,
            last_seconds: seconds,
        }
    }

    fn observe(&mut self, seconds: f64) {
        self.count += 1;
        self.total_seconds += seconds;
        self.min_seconds = self.min_seconds.min(seconds);
        self.max_seconds = self.max_seconds.max(seconds);
        self.last_seconds = seconds;
    }

    /// Mean span duration \[s\].
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_seconds / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct Registry {
    spans: BTreeMap<&'static str, SpanStat>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    fn record_span(&mut self, name: &'static str, seconds: f64) {
        self.spans
            .entry(name)
            .and_modify(|s| s.observe(seconds))
            .or_insert_with(|| SpanStat::new(seconds));
        self.histograms
            .entry(name)
            .or_insert_with(Histogram::latency)
            .record(seconds);
    }
}

/// A cheap, cloneable telemetry handle.
///
/// The default handle is **disabled**: spans, counters, and snapshots all
/// short-circuit on a `None` check. [`Telemetry::enabled`] allocates a
/// shared registry; clones of an enabled handle feed the same registry.
#[derive(Debug, Clone, Default)]
pub struct Telemetry(Option<Arc<Mutex<Registry>>>);

impl Telemetry {
    /// A disabled handle (same as `Telemetry::default()`): every call is a
    /// single branch and records nothing.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// An enabled handle with a fresh, empty registry.
    pub fn enabled() -> Self {
        Self(Some(Arc::new(Mutex::new(Registry::default()))))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Starts a monotonic span timer; the duration is recorded when the
    /// returned guard drops. On a disabled handle the guard is inert.
    #[must_use = "the span records its duration when dropped"]
    pub fn span(&self, name: SpanName) -> Span {
        Span {
            registry: self.0.clone(),
            name: name.0,
            start: Stopwatch::start(),
        }
    }

    /// Runs `f` inside a span — convenient when the timed region is an
    /// expression rather than a scope.
    pub fn time<T>(&self, name: SpanName, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(name);
        f()
    }

    /// Records an externally measured duration under `name`, merging into
    /// the same statistics a [`Span`] would.
    pub fn record_span(&self, name: SpanName, seconds: f64) {
        if let Some(reg) = &self.0 {
            reg.lock().unwrap().record_span(name.0, seconds);
        }
    }

    /// Increments the counter `name` by `delta`.
    pub fn add(&self, name: CounterName, delta: u64) {
        if let Some(reg) = &self.0 {
            *reg.lock().unwrap().counters.entry(name.0).or_insert(0) += delta;
        }
    }

    /// Adds every counter of `snap` into this handle's counters (spans and
    /// histograms are left out).
    pub fn add_counters(&self, snap: &Snapshot) {
        if let Some(reg) = &self.0 {
            let mut reg = reg.lock().unwrap();
            for (name, value) in snap.counters() {
                *reg.counters.entry(name).or_insert(0) += value;
            }
        }
    }

    /// An immutable snapshot of everything recorded so far. Empty for a
    /// disabled handle.
    pub fn snapshot(&self) -> Snapshot {
        match &self.0 {
            None => Snapshot::default(),
            Some(reg) => {
                let reg = reg.lock().unwrap();
                Snapshot {
                    spans: reg.spans.clone(),
                    counters: reg.counters.clone(),
                    histograms: reg.histograms.clone(),
                }
            }
        }
    }

    /// Clears all recorded spans, counters, and histograms (the handle
    /// stays enabled). No-op on a disabled handle.
    pub fn reset(&self) {
        if let Some(reg) = &self.0 {
            let mut reg = reg.lock().unwrap();
            reg.spans.clear();
            reg.counters.clear();
            reg.histograms.clear();
        }
    }
}

/// RAII span guard returned by [`Telemetry::span`]; records its elapsed
/// time into the registry on drop.
#[derive(Debug)]
pub struct Span {
    registry: Option<Arc<Mutex<Registry>>>,
    name: &'static str,
    start: Stopwatch,
}

impl Span {
    /// Seconds elapsed since the span started (the span keeps running).
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed_seconds()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(reg) = &self.registry {
            let seconds = self.start.elapsed_seconds();
            reg.lock().unwrap().record_span(self.name, seconds);
        }
    }
}

/// A point-in-time copy of a [`Telemetry`] registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    spans: BTreeMap<&'static str, SpanStat>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Snapshot {
    /// Statistics for span `name`, if any span completed under it.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.get(name)
    }

    /// The value of counter `name`, if it was ever incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The latency histogram fed by span `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All spans in name order.
    pub fn spans(&self) -> impl Iterator<Item = (&'static str, &SpanStat)> + '_ {
        self.spans.iter().map(|(k, v)| (*k, v))
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// A compact multi-line text report (one line per span, then counters),
    /// in deterministic name order.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, s) in self.spans() {
            let _ = writeln!(
                out,
                "{name}: n={} mean={:.3}ms last={:.3}ms min={:.3}ms max={:.3}ms total={:.3}s",
                s.count,
                s.mean_seconds() * 1e3,
                s.last_seconds * 1e3,
                s.min_seconds * 1e3,
                s.max_seconds * 1e3,
                s.total_seconds,
            );
        }
        for (name, v) in self.counters() {
            let _ = writeln!(out, "{name}: {v}");
        }
        out
    }
}

/// Deterministic accumulation of counters across many [`Snapshot`]s.
///
/// Fleet-scale evaluation runs hundreds of independent simulations, each
/// with its own [`Telemetry`] registry; this rolls their counters up into
/// one fleet-level view (`BTreeMap`-backed, so iteration and JSON output
/// are in stable name order). Only counters are absorbed — spans and
/// histograms carry wall-clock durations, which must never leak into
/// deterministic report rows.
///
/// # Examples
///
/// ```
/// use raceloc_obs::{names, CounterRollup, Telemetry};
///
/// let mut rollup = CounterRollup::new();
/// for run in 0..3u64 {
///     let tel = Telemetry::enabled();
///     tel.add(names::EVAL_STEPS, 10 + run);
///     rollup.absorb(&tel.snapshot());
/// }
/// assert_eq!(rollup.total(names::EVAL_STEPS.as_str()), Some(33));
/// assert_eq!(rollup.snapshots(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterRollup {
    totals: BTreeMap<&'static str, u64>,
    snapshots: u64,
}

impl CounterRollup {
    /// An empty rollup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every counter of a snapshot into the running totals.
    pub fn absorb(&mut self, snap: &Snapshot) {
        self.absorb_pairs(snap.counters());
        self.snapshots += 1;
    }

    /// Adds already-extracted `(name, value)` counter pairs (one logical
    /// snapshot) into the running totals.
    pub fn absorb_counts(&mut self, pairs: &[(&'static str, u64)]) {
        self.absorb_pairs(pairs.iter().copied());
        self.snapshots += 1;
    }

    fn absorb_pairs(&mut self, pairs: impl Iterator<Item = (&'static str, u64)>) {
        for (name, value) in pairs {
            *self.totals.entry(name).or_insert(0) += value;
        }
    }

    /// Merges another rollup into this one (totals add, snapshot counts
    /// add).
    pub fn merge(&mut self, other: &CounterRollup) {
        for (name, value) in &other.totals {
            *self.totals.entry(name).or_insert(0) += value;
        }
        self.snapshots += other.snapshots;
    }

    /// The accumulated total for one counter, if it ever appeared.
    pub fn total(&self, name: &str) -> Option<u64> {
        self.totals.get(name).copied()
    }

    /// All accumulated counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.totals.iter().map(|(k, v)| (*k, *v))
    }

    /// Number of snapshots absorbed so far.
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// Whether no counters have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// Serializes the totals as a JSON object in stable name order.
    pub fn to_json(&self) -> crate::Json {
        crate::Json::Obj(
            self.iter()
                .map(|(name, v)| (name.to_string(), crate::Json::num(v as f64)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        {
            let _s = tel.span(SpanName("work"));
        }
        tel.add(CounterName("n"), 5);
        tel.record_span(SpanName("manual"), 0.1);
        let snap = tel.snapshot();
        assert!(snap.span("work").is_none());
        assert!(snap.counter("n").is_none());
        assert!(!tel.is_enabled());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn span_durations_are_monotone_and_aggregate() {
        let tel = Telemetry::enabled();
        for _ in 0..3 {
            let s = tel.span(SpanName("step"));
            assert!(s.elapsed_seconds() >= 0.0);
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let snap = tel.snapshot();
        let stat = snap.span("step").unwrap();
        assert_eq!(stat.count, 3);
        assert!(stat.min_seconds > 0.0, "monotonic clock moved forward");
        assert!(stat.min_seconds <= stat.max_seconds);
        assert!(stat.total_seconds >= 3.0 * stat.min_seconds - 1e-12);
        assert!(stat.mean_seconds() >= stat.min_seconds - 1e-12);
        assert!(stat.mean_seconds() <= stat.max_seconds + 1e-12);
    }

    #[test]
    fn nested_spans_record_independently() {
        let tel = Telemetry::enabled();
        {
            let _outer = tel.span(SpanName("outer"));
            {
                let _inner = tel.span(SpanName("inner"));
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        }
        let snap = tel.snapshot();
        let outer = snap.span("outer").unwrap();
        let inner = snap.span("inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // The outer span encloses the inner one.
        assert!(outer.total_seconds >= inner.total_seconds);
    }

    #[test]
    fn spans_feed_histograms() {
        let tel = Telemetry::enabled();
        tel.record_span(SpanName("stage"), 1.5e-3);
        tel.record_span(SpanName("stage"), 1.5e-3);
        let snap = tel.snapshot();
        let h = snap.histogram("stage").unwrap();
        assert_eq!(h.total(), 2);
        assert_eq!(h.quantile_upper_bound(0.5), Some(1.6e-3));
    }

    #[test]
    fn clones_share_a_registry() {
        let tel = Telemetry::enabled();
        let clone = tel.clone();
        clone.add(CounterName("shared"), 2);
        tel.add(CounterName("shared"), 3);
        assert_eq!(tel.snapshot().counter("shared"), Some(5));
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let tel = Telemetry::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let tel = tel.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        tel.add(CounterName("hits"), 1);
                    }
                    let _s = tel.span(SpanName("worker"));
                });
            }
        });
        let snap = tel.snapshot();
        assert_eq!(snap.counter("hits"), Some(400));
        assert_eq!(snap.span("worker").unwrap().count, 4);
    }

    #[test]
    fn add_counters_merges_another_snapshot() {
        let world = Telemetry::enabled();
        world.add(CounterName("w"), 4);
        world.record_span(SpanName("timed"), 0.5);
        let tel = Telemetry::enabled();
        tel.add(CounterName("w"), 1);
        tel.add_counters(&world.snapshot());
        let snap = tel.snapshot();
        assert_eq!(snap.counter("w"), Some(5));
        assert!(snap.span("timed").is_none(), "only counters merge");
    }

    #[test]
    fn reset_clears_but_stays_enabled() {
        let tel = Telemetry::enabled();
        tel.add(CounterName("n"), 1);
        tel.reset();
        assert!(tel.is_enabled());
        assert!(tel.snapshot().counter("n").is_none());
    }

    #[test]
    fn time_wraps_a_closure() {
        let tel = Telemetry::enabled();
        let v = tel.time(SpanName("calc"), || 21 * 2);
        assert_eq!(v, 42);
        assert_eq!(tel.snapshot().span("calc").unwrap().count, 1);
    }

    #[test]
    fn report_is_deterministic_and_named() {
        let tel = Telemetry::enabled();
        tel.record_span(SpanName("b.stage"), 0.001);
        tel.record_span(SpanName("a.stage"), 0.002);
        tel.add(CounterName("z.count"), 7);
        let report = tel.snapshot().report();
        let a = report.find("a.stage").unwrap();
        let b = report.find("b.stage").unwrap();
        assert!(a < b, "spans reported in name order");
        assert!(report.contains("z.count: 7"));
    }

    #[test]
    fn rollup_accumulates_counters_only() {
        let mut rollup = CounterRollup::new();
        let tel = Telemetry::enabled();
        tel.add(CounterName("a"), 2);
        tel.record_span(SpanName("timed"), 0.5); // spans must not leak into the rollup
        rollup.absorb(&tel.snapshot());
        rollup.absorb_counts(&[("a", 3), ("b", 1)]);
        assert_eq!(rollup.total("a"), Some(5));
        assert_eq!(rollup.total("b"), Some(1));
        assert_eq!(rollup.total("timed"), None);
        assert_eq!(rollup.snapshots(), 2);
        assert!(!rollup.is_empty());
    }

    #[test]
    fn rollup_merge_adds_totals_and_counts() {
        let mut a = CounterRollup::new();
        a.absorb_counts(&[("x", 1)]);
        let mut b = CounterRollup::new();
        b.absorb_counts(&[("x", 2), ("y", 5)]);
        a.merge(&b);
        assert_eq!(a.total("x"), Some(3));
        assert_eq!(a.total("y"), Some(5));
        assert_eq!(a.snapshots(), 2);
        let names: Vec<&str> = a.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["x", "y"], "name order is stable");
    }

    #[test]
    fn rollup_json_is_stable_and_parseable() {
        let mut rollup = CounterRollup::new();
        rollup.absorb_counts(&[("b.n", 2), ("a.n", 1)]);
        let text = format!("{}", rollup.to_json());
        assert_eq!(text, "{\"a.n\":1,\"b.n\":2}");
    }
}
