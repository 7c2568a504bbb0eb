//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own wrappers around calls into
//! each crate's public API: name, start, end, parent span, and the scan or
//! request id the work belongs to. They stay in memory while the workload
//! runs and are written out as JSON lines when it ends. A disabled tracer
//! records nothing, so untraced runs pay only for the timestamps their
//! end-to-end metrics need.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A tracer shared by the wrappers of one workload run.
pub type Shared = std::rc::Rc<std::cell::RefCell<Tracer>>;

/// Id of a recorded span; [`NO_SPAN`] marks a root.
pub type SpanId = u32;

/// The parent id of a root span.
pub const NO_SPAN: SpanId = 0;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRec {
    /// Span id (1-based, unique within the tracer).
    pub id: SpanId,
    /// Parent span id, or [`NO_SPAN`].
    pub parent: SpanId,
    /// Layer-qualified name, e.g. `pf.correct`.
    pub name: &'static str,
    /// The scan or request id the span belongs to.
    pub key: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-3
    }
}

/// The span store of one workload run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: SpanId,
    spans: Vec<SpanRec>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            next_id: NO_SPAN,
            spans: Vec::new(),
        }
    }

    /// A new shared tracer.
    pub fn shared(on: bool) -> Shared {
        std::rc::Rc::new(std::cell::RefCell::new(Self::new(on)))
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (spans already recorded are kept).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds between the tracer's creation and `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves an id for a span whose children are recorded before it
    /// ends. Returns [`NO_SPAN`] when recording is off.
    pub fn reserve(&mut self) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        self.next_id += 1;
        self.next_id
    }

    /// Records a span under a [`Tracer::reserve`]d id.
    pub fn record_as(
        &mut self,
        id: SpanId,
        name: &'static str,
        parent: SpanId,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on || id == NO_SPAN {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(SpanRec {
            id,
            parent,
            name,
            key,
            start_ns,
            end_ns,
        });
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.reserve();
        self.record_as(id, name, parent, key, start, end);
        id
    }

    /// Durations \[µs\] of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::us)
            .collect()
    }

    /// Self times \[µs\] of every span called `name`: its duration minus
    /// the part of it that its child spans cover.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut child_ns: std::collections::HashMap<SpanId, u64> = Default::default();
        for s in &self.spans {
            if s.parent != NO_SPAN {
                *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let own = s.end_ns.saturating_sub(s.start_ns);
                own.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)) as f64 * 1e-3
            })
            .collect()
    }

    /// Writes the spans to `<out-dir>/trace_<workload>_<seed>.jsonl`,
    /// warning on failure (a lost trace file fails no check).
    pub fn save(&self, args: &crate::Args) {
        let name = format!("trace_{}_{}.jsonl", args.workload, args.seed);
        let path = args.out_dir.join(name);
        if let Err(e) = self.write_jsonl(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let parent = tr.reserve();
        tr.record("pf.predict", parent, 1, at(10), at(30));
        tr.record("pf.correct", parent, 1, at(40), at(90));
        tr.record_as(parent, "sim.period", NO_SPAN, 1, at(0), at(100));
        assert_eq!(tr.durations_us("sim.period"), vec![100.0]);
        assert_eq!(tr.self_times_us("sim.period"), vec![30.0]);
        assert_eq!(tr.self_times_us("pf.correct"), vec![50.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let t = Instant::now();
        assert_eq!(tr.record("pf.correct", NO_SPAN, 0, t, t), NO_SPAN);
        assert!(tr.durations_us("pf.correct").is_empty());
    }
}
