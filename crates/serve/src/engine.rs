//! The multi-session serve engine: session table, admission control,
//! cross-session batching, and deterministic drain.

use crate::record::ServeStepRecord;
use crate::session::{session_seed, LocalizerSpec, SessionId, SessionSlot, SessionSummary};
use raceloc_core::sensor_data::{LaserScan, Odometry};
use raceloc_core::{Health, Pose2};
use raceloc_map::OccupancyGrid;
use raceloc_obs::{names, CounterRollup, Json, Telemetry};
use raceloc_par::{chunk_spans, FnJob, WorkerPool};
use raceloc_range::{ArtifactParams, ArtifactStore};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::Write;

/// Engine-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Master seed; each session draws its own RNG stream from it
    /// ([`session_seed`]), so per-session randomness is independent of open
    /// order *timing*, thread count, and every other session.
    pub seed: u64,
    /// Worker threads for the drain fan-out. Results are bit-identical for
    /// any value (chunking never feeds RNG or per-session state).
    pub threads: usize,
    /// Bounded request queue length; beyond it, admission control sheds
    /// the *oldest* queued request (freshest-data-wins, the right policy
    /// for localization where stale inputs only drag the estimate back).
    pub queue_capacity: usize,
    /// Maximum concurrently open sessions.
    pub max_sessions: usize,
    /// Minimum sessions per pool chunk when draining: small sessions are
    /// packed together so the pool sees few, dense jobs instead of one
    /// tiny job per session.
    pub chunk_min: usize,
    /// Per-session step quota per drain batch (`0` = unlimited). When one
    /// session has more requests queued than this at drain time, the
    /// *oldest* beyond the quota are shed (freshest-data-wins, like queue
    /// backpressure) and booked to `serve.budget.shed` plus the session's
    /// shed count. This is the serve-side compute budget: a session that
    /// floods the engine degrades itself instead of stretching the batch
    /// deadline for everyone (DESIGN.md §14).
    pub session_step_quota: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            threads: 1,
            queue_capacity: 4096,
            max_sessions: 1024,
            chunk_min: 4,
            session_step_quota: 0,
        }
    }
}

/// Why an engine call was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// `open_session` refused: the session table is full.
    AtCapacity {
        /// The configured [`ServeConfig::max_sessions`] limit.
        limit: usize,
    },
    /// The referenced session is not open (never existed or was closed).
    UnknownSession(SessionId),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::AtCapacity { limit } => {
                write!(f, "session table full ({limit} sessions)")
            }
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One step of work for a session: a mandatory odometry sample and an
/// optional scan correction.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRequest {
    /// The target session.
    pub session: SessionId,
    /// Odometry input (drives the prediction).
    pub odom: Odometry,
    /// Scan input (drives the correction); `None` coasts on prediction.
    pub scan: Option<LaserScan>,
}

/// The outcome of one executed step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepResult {
    /// The session that stepped.
    pub session: SessionId,
    /// Per-session sequence number (0-based, gap-free).
    pub seq: u64,
    /// Pose estimate after the step.
    pub pose: Pose2,
    /// Localizer health after the step.
    pub health: Health,
}

/// Work moved through the pool: each job carries a contiguous run of
/// sessions (id, slot, its pending requests) and hands the slots back with
/// the step results.
type ChunkWork = Vec<(u64, SessionSlot, Vec<StepRequest>)>;
type ChunkOut = Vec<(u64, SessionSlot, Vec<(StepRequest, StepResult)>)>;
type ChunkJob = FnJob<(), ChunkOut>;

/// A multi-session localization engine over one shared artifact store and
/// one worker pool.
///
/// Sessions are opened against a map + [`LocalizerSpec`]; step requests
/// are submitted into a bounded queue and executed in deterministic
/// batches by [`ServeEngine::drain`]. Each session's steps run serially in
/// submission order with a private RNG stream, so the full multi-session
/// output is bit-identical for every thread count.
///
/// # Examples
///
/// ```
/// use raceloc_core::sensor_data::Odometry;
/// use raceloc_core::{Pose2, Twist2};
/// use raceloc_map::{TrackShape, TrackSpec};
/// use raceloc_range::ArtifactParams;
/// use raceloc_serve::{LocalizerSpec, ServeConfig, ServeEngine, StepRequest};
///
/// let track = TrackSpec::new(TrackShape::Oval { width: 10.0, height: 6.0 })
///     .resolution(0.1)
///     .build();
/// let mut engine = ServeEngine::new(ServeConfig::default());
/// let id = engine
///     .open_session(
///         &track.grid,
///         ArtifactParams::default(),
///         LocalizerSpec::DeadReckoning,
///         track.start_pose(),
///     )
///     .expect("capacity available");
/// engine
///     .submit(StepRequest {
///         session: id,
///         odom: Odometry::new(Pose2::new(0.1, 0.0, 0.0), Twist2::new(1.0, 0.0, 0.0), 0.1),
///         scan: None,
///     })
///     .expect("session is open");
/// let results = engine.drain();
/// assert_eq!(results.len(), 1);
/// assert_eq!(results[0].seq, 0);
/// ```
pub struct ServeEngine {
    config: ServeConfig,
    store: ArtifactStore,
    sessions: BTreeMap<u64, SessionSlot>,
    queue: VecDeque<StepRequest>,
    pool: WorkerPool<(), ChunkJob>,
    tel: Telemetry,
    next_id: u64,
    recorder: Option<Box<dyn Write + Send>>,
}

impl fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeEngine")
            .field("config", &self.config)
            .field("sessions", &self.sessions.len())
            .field("queued", &self.queue.len())
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Creates an engine with its own artifact store and worker pool.
    ///
    /// # Panics
    ///
    /// Panics when `queue_capacity`, `max_sessions`, or `chunk_min` is zero.
    pub fn new(config: ServeConfig) -> Self {
        assert!(config.queue_capacity > 0, "queue_capacity must be positive");
        assert!(config.max_sessions > 0, "max_sessions must be positive");
        assert!(config.chunk_min > 0, "chunk_min must be positive");
        Self {
            pool: WorkerPool::new((), config.threads),
            store: ArtifactStore::new(),
            sessions: BTreeMap::new(),
            queue: VecDeque::new(),
            tel: Telemetry::enabled(),
            next_id: 0,
            recorder: None,
            config,
        }
    }

    /// Attaches a JSONL recorder: session opens write a `serve_open` meta
    /// line; every drained step writes a `serve_step` line in canonical
    /// `(session, seq)` order (thread-count-independent bytes).
    pub fn set_recorder(&mut self, out: impl Write + Send + 'static) {
        self.recorder = Some(Box::new(out));
    }

    /// Opens a session: resolves (or builds) the shared artifact bundle for
    /// `(grid, params)`, constructs the localizer with the session's
    /// deterministic RNG stream, and resets it to `start`.
    pub fn open_session(
        &mut self,
        grid: &OccupancyGrid,
        params: ArtifactParams,
        spec: LocalizerSpec,
        start: Pose2,
    ) -> Result<SessionId, ServeError> {
        if self.sessions.len() >= self.config.max_sessions {
            return Err(ServeError::AtCapacity {
                limit: self.config.max_sessions,
            });
        }
        let artifacts = self.store.get_or_build(grid, params);
        let id = SessionId(self.next_id);
        self.next_id += 1;
        let tel = Telemetry::enabled();
        let mut localizer = spec.build(&artifacts, session_seed(self.config.seed, id), tel.clone());
        localizer.reset(start);
        let slot = SessionSlot {
            localizer,
            tel,
            name: spec.name(),
            steps: 0,
            sheds: 0,
            artifact_key: artifacts.key(),
        };
        self.record_open(id, &slot, start);
        self.sessions.insert(id.0, slot);
        self.tel.add(names::SERVE_SESSIONS_OPENED, 1);
        Ok(id)
    }

    /// Queues one step. When the queue is at capacity the *oldest* queued
    /// request is shed first (`serve.shed` counter, attributed to the shed
    /// request's session), then the new request is admitted.
    pub fn submit(&mut self, req: StepRequest) -> Result<(), ServeError> {
        if !self.sessions.contains_key(&req.session.0) {
            return Err(ServeError::UnknownSession(req.session));
        }
        if self.queue.len() >= self.config.queue_capacity {
            if let Some(old) = self.queue.pop_front() {
                self.tel.add(names::SERVE_SHED, 1);
                if let Some(slot) = self.sessions.get_mut(&old.session.0) {
                    slot.sheds += 1;
                }
            }
        }
        self.queue.push_back(req);
        Ok(())
    }

    /// Executes every queued request as one deterministic batch and
    /// returns the results in `(session, seq)` order.
    ///
    /// Requests are grouped by session (submission order preserved within
    /// each), sessions are packed into contiguous pool chunks
    /// ([`ServeConfig::chunk_min`] per chunk minimum), and each chunk runs
    /// on one worker. A session's steps are always serial, so neither the
    /// chunk layout nor the thread count can change any estimate.
    pub fn drain(&mut self) -> Vec<StepResult> {
        if self.queue.is_empty() {
            return Vec::new();
        }
        let batch_span = self.tel.span(names::SERVE_DRAIN);
        // Group by session, preserving per-session submission order.
        let mut by_session: BTreeMap<u64, Vec<StepRequest>> = BTreeMap::new();
        for req in self.queue.drain(..) {
            by_session.entry(req.session.0).or_default().push(req);
        }
        // Lift the involved slots out of the table; BTreeMap iteration
        // gives the deterministic ascending-id work order.
        let mut items: ChunkWork = Vec::with_capacity(by_session.len());
        let quota = self.config.session_step_quota;
        for (id, mut reqs) in by_session {
            match self.sessions.remove(&id) {
                Some(mut slot) => {
                    if quota > 0 && reqs.len() > quota {
                        // Over-quota session: shed the oldest, keep the
                        // newest `quota` requests.
                        let shed = (reqs.len() - quota) as u64;
                        reqs.drain(..reqs.len() - quota);
                        self.tel.add(names::SERVE_BUDGET_SHED, shed);
                        slot.sheds += shed;
                    }
                    items.push((id, slot, reqs));
                }
                None => self
                    .tel
                    .add(names::SERVE_DROPPED_UNKNOWN, reqs.len() as u64),
            }
        }
        let spans: Vec<std::ops::Range<usize>> =
            chunk_spans(items.len(), self.config.chunk_min).collect();
        let mut jobs: Vec<ChunkJob> = Vec::with_capacity(spans.len());
        // Peel chunks off the tail so each split is O(chunk); tags keep the
        // canonical order for the scatter below.
        for (tag, span) in spans.iter().enumerate().rev() {
            let steps: usize = items[span.start..].iter().map(|(_, _, r)| r.len()).sum();
            let mut work = Some(items.split_off(span.start));
            jobs.push(FnJob::new(tag, move |_: &()| run_chunk(work.take())).with_items(steps));
        }
        self.pool.run_batch(&mut jobs);
        let mut results: Vec<StepResult> = Vec::new();
        let mut executed: Vec<(StepRequest, StepResult)> = Vec::new();
        for job in &mut jobs {
            for (id, slot, outcomes) in job.take().into_iter().flatten() {
                results.extend(outcomes.iter().map(|(_, res)| *res));
                executed.extend(outcomes);
                self.sessions.insert(id, slot);
            }
        }
        results.sort_by_key(|r| (r.session.0, r.seq));
        executed.sort_by_key(|(_, r)| (r.session.0, r.seq));
        self.record_steps(&executed);
        self.tel.add(names::SERVE_STEPS, results.len() as u64);
        self.tel.add(names::SERVE_BATCHES, 1);
        drop(batch_span);
        results
    }

    /// Closes a session and returns its terminal summary (step count,
    /// backpressure sheds, telemetry snapshot).
    pub fn close_session(&mut self, id: SessionId) -> Result<SessionSummary, ServeError> {
        let slot = self
            .sessions
            .remove(&id.0)
            .ok_or(ServeError::UnknownSession(id))?;
        self.tel.add(names::SERVE_SESSIONS_CLOSED, 1);
        Ok(SessionSummary {
            id,
            name: slot.name,
            steps: slot.steps,
            sheds: slot.sheds,
            artifact_key: slot.artifact_key,
            snapshot: slot.tel.snapshot(),
        })
    }

    /// The current pose estimate of an open session.
    pub fn pose(&self, id: SessionId) -> Result<Pose2, ServeError> {
        self.sessions
            .get(&id.0)
            .map(|s| s.localizer.pose())
            .ok_or(ServeError::UnknownSession(id))
    }

    /// Number of currently open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Number of requests waiting for the next [`ServeEngine::drain`].
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Total requests shed by backpressure since the engine was created.
    pub fn shed_total(&self) -> u64 {
        self.tel
            .snapshot()
            .counter(names::SERVE_SHED.as_str())
            .unwrap_or(0)
    }

    /// Total requests shed by per-session step quotas
    /// ([`ServeConfig::session_step_quota`]) since the engine was created.
    pub fn budget_shed_total(&self) -> u64 {
        self.tel
            .snapshot()
            .counter(names::SERVE_BUDGET_SHED.as_str())
            .unwrap_or(0)
    }

    /// The engine's shared artifact store (builds/hits counters live here).
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The engine configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The engine-level telemetry handle (`serve.*` counters and the
    /// `serve.drain` span).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// A point-in-time counter rollup across the engine and every *open*
    /// session: `serve.*` counters, artifact-store counters
    /// (`range.artifacts.*`), worker-pool counters (`par.pool.*`, delta
    /// since the previous rollup), and each session's own telemetry.
    pub fn rollup(&self) -> CounterRollup {
        let mut rollup = CounterRollup::new();
        let infra = Telemetry::enabled();
        self.store.publish_stats(&infra);
        self.pool.publish_stats(&infra);
        rollup.absorb(&infra.snapshot());
        rollup.absorb(&self.tel.snapshot());
        for slot in self.sessions.values() {
            rollup.absorb(&slot.tel.snapshot());
            rollup.absorb_counts(&[(names::SERVE_SESSION_STEPS.as_str(), slot.steps)]);
        }
        rollup
    }

    fn record_open(&mut self, id: SessionId, slot: &SessionSlot, start: Pose2) {
        let Some(out) = self.recorder.as_mut() else {
            return;
        };
        let doc = Json::Obj(vec![
            ("type".into(), Json::Str("serve_open".into())),
            ("session".into(), Json::num(id.0 as f64)),
            ("localizer".into(), Json::Str(slot.name.into())),
            (
                "artifact_key".into(),
                Json::Str(format!("{:016x}", slot.artifact_key)),
            ),
            (
                "start".into(),
                Json::Arr(vec![
                    Json::num(start.x),
                    Json::num(start.y),
                    Json::num(start.theta),
                ]),
            ),
        ]);
        if writeln!(out, "{doc}").is_err() {
            self.tel.add(names::SERVE_RECORD_ERRORS, 1);
        }
    }

    fn record_steps(&mut self, executed: &[(StepRequest, StepResult)]) {
        let Some(out) = self.recorder.as_mut() else {
            return;
        };
        let mut errors = 0u64;
        for (req, res) in executed {
            let line = ServeStepRecord::from_step(req, res).to_json();
            if writeln!(out, "{line}").is_err() {
                errors += 1;
            }
        }
        if errors > 0 {
            self.tel.add(names::SERVE_RECORD_ERRORS, errors);
        }
    }
}

/// Executes one chunk of sessions: serial steps per session, sessions in
/// ascending-id order. Pure w.r.t. the pool context, so any worker
/// produces identical results.
fn run_chunk(work: Option<ChunkWork>) -> ChunkOut {
    let Some(chunk) = work else {
        return Vec::new();
    };
    let mut out: ChunkOut = Vec::with_capacity(chunk.len());
    for (id, mut slot, reqs) in chunk {
        let mut outcomes = Vec::with_capacity(reqs.len());
        for req in reqs {
            let seq = slot.steps;
            slot.localizer.predict(&req.odom);
            let pose = match &req.scan {
                Some(scan) => slot.localizer.correct(scan),
                None => slot.localizer.pose(),
            };
            slot.steps += 1;
            let res = StepResult {
                session: SessionId(id),
                seq,
                pose,
                health: slot.localizer.health(),
            };
            outcomes.push((req, res));
        }
        out.push((id, slot, outcomes));
    }
    out
}
