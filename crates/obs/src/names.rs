//! The telemetry name catalog: every counter and span name the workspace
//! records.
//!
//! The write APIs of [`Telemetry`](crate::Telemetry) take a [`CounterName`]
//! or a [`SpanName`], which no crate but `raceloc_obs` can make, so a name
//! that is not declared here does not compile. Readers ([`Snapshot`](crate::Snapshot),
//! [`CounterRollup`](crate::CounterRollup)) keep plain `&str` lookups and
//! yield `&'static str` names; pass [`CounterName::as_str`] or
//! [`SpanName::as_str`] to look one of these up.
//!
//! # Examples
//!
//! ```
//! use raceloc_obs::{names, Telemetry};
//!
//! let tel = Telemetry::enabled();
//! tel.add(names::PF_HEALTH_REINIT, 1);
//! assert_eq!(tel.snapshot().counter("pf.health.reinit"), Some(1));
//! assert_eq!(names::PF_HEALTH_REINIT.as_str(), "pf.health.reinit");
//! ```

/// The name of a telemetry counter (an event count, additive across runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterName(pub(crate) &'static str);

/// The name of a telemetry span (a timed stage, double-booked into a
/// latency histogram of the same name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanName(pub(crate) &'static str);

impl CounterName {
    /// The dotted name as recorded in snapshots and reports.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

impl SpanName {
    /// The dotted name as recorded in snapshots and reports.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

/// Declares one constant per name plus the list of all of them.
macro_rules! catalog {
    ($ty:ident, $all:ident; $($name:ident = $text:literal;)*) => {
        $(
            #[doc = concat!("`", $text, "`")]
            pub const $name: $ty = $ty($text);
        )*
        /// Every declared name of this kind.
        pub const $all: &[$ty] = &[$($name),*];
    };
}

catalog! {
    CounterName, COUNTERS;
    DEADLINE_COAST_STEPS = "deadline.coast_steps";
    DEADLINE_FINAL_RUNG = "deadline.final_rung";
    DEADLINE_MISS = "deadline.miss";
    DEADLINE_RUNG = "deadline.rung";
    DEADLINE_RUNG0 = "deadline.rung0";
    DEADLINE_RUNG1 = "deadline.rung1";
    DEADLINE_RUNG2 = "deadline.rung2";
    DEADLINE_RUNG3 = "deadline.rung3";
    DEADLINE_RUNG4 = "deadline.rung4";
    DEADLINE_RUNG5 = "deadline.rung5";

    EVAL_CACHE_HITS = "eval.cache.hits";
    EVAL_CACHE_MISSES = "eval.cache.misses";
    EVAL_CACHE_STORES = "eval.cache.stores";
    EVAL_CRASHES = "eval.crashes";
    EVAL_NONFINITE = "eval.nonfinite";
    EVAL_RUNS = "eval.runs";
    EVAL_STEPS = "eval.steps";
    EVAL_SUCCESSES = "eval.successes";

    FAULTS_BEAM_DROPOUT_ACTIVATIONS = "faults.beam_dropout.activations";
    FAULTS_BEAM_DROPOUT_STEPS = "faults.beam_dropout.steps";
    FAULTS_COMPUTE_PRESSURE_ACTIVATIONS = "faults.compute_pressure.activations";
    FAULTS_COMPUTE_PRESSURE_STEPS = "faults.compute_pressure.steps";
    FAULTS_LATENCY_ACTIVATIONS = "faults.latency.activations";
    FAULTS_LATENCY_STEPS = "faults.latency.steps";
    FAULTS_LIDAR_BLACKOUT_ACTIVATIONS = "faults.lidar_blackout.activations";
    FAULTS_LIDAR_BLACKOUT_STEPS = "faults.lidar_blackout.steps";
    FAULTS_MAP_CORRUPTION_ACTIVATIONS = "faults.map_corruption.activations";
    FAULTS_MAP_CORRUPTION_STEPS = "faults.map_corruption.steps";
    FAULTS_ODOM_SLIP_ACTIVATIONS = "faults.odom_slip.activations";
    FAULTS_ODOM_SLIP_STEPS = "faults.odom_slip.steps";
    FAULTS_POSE_KIDNAP_ACTIVATIONS = "faults.pose_kidnap.activations";
    FAULTS_POSE_KIDNAP_STEPS = "faults.pose_kidnap.steps";
    FAULTS_RANGE_BIAS_ACTIVATIONS = "faults.range_bias.activations";
    FAULTS_RANGE_BIAS_STEPS = "faults.range_bias.steps";
    FAULTS_RANGE_SCALE_ACTIVATIONS = "faults.range_scale.activations";
    FAULTS_RANGE_SCALE_STEPS = "faults.range_scale.steps";
    FAULTS_STUCK_ENCODER_ACTIVATIONS = "faults.stuck_encoder.activations";
    FAULTS_STUCK_ENCODER_STEPS = "faults.stuck_encoder.steps";

    PAR_POOL_BATCHES = "par.pool.batches";
    PAR_POOL_CHUNK_GT_1024 = "par.pool.chunk_gt_1024";
    PAR_POOL_CHUNK_LE_1024 = "par.pool.chunk_le_1024";
    PAR_POOL_CHUNK_LE_128 = "par.pool.chunk_le_128";
    PAR_POOL_CHUNK_LE_256 = "par.pool.chunk_le_256";
    PAR_POOL_CHUNK_LE_512 = "par.pool.chunk_le_512";
    PAR_POOL_CHUNK_LE_64 = "par.pool.chunk_le_64";
    PAR_POOL_JOBS = "par.pool.jobs";
    PAR_POOL_QUEUE_PEAK = "par.pool.queue_peak";

    PF_HEALTH_REINIT = "pf.health.reinit";
    PF_KLD_N_TARGET = "pf.kld.n_target";
    PF_SOA_RESAMPLED = "pf.soa.resampled";

    RANGE_ARTIFACTS_BUILDS = "range.artifacts.builds";
    RANGE_ARTIFACTS_CACHED = "range.artifacts.cached";
    RANGE_ARTIFACTS_HITS = "range.artifacts.hits";
    RANGE_ARTIFACTS_LUTS_BUILT = "range.artifacts.luts_built";
    RANGE_LUT_CELLS_FILLED = "range.lut.cells_filled";
    RANGE_LUT_COMPRESSED_BYTES = "range.lut.compressed_bytes";
    RANGE_QUERIES = "range.queries";

    SERVE_BATCHES = "serve.batches";
    SERVE_BUDGET_SHED = "serve.budget.shed";
    SERVE_DROPPED_UNKNOWN = "serve.dropped_unknown";
    SERVE_RECORD_ERRORS = "serve.record.errors";
    SERVE_SESSION_STEPS = "serve.session.steps";
    SERVE_SESSIONS_CLOSED = "serve.sessions.closed";
    SERVE_SESSIONS_OPENED = "serve.sessions.opened";
    SERVE_SHED = "serve.shed";
    SERVE_STEPS = "serve.steps";
}

catalog! {
    SpanName, SPANS;
    // `pf.cast_weight` times the fused ray-cast + weight kernel and
    // `pf.reduce` the normalisation and estimate reduction after it.
    PAR_POOL_BUSY = "par.pool.busy";

    PF_CAST_WEIGHT = "pf.cast_weight";
    PF_CORRECT = "pf.correct";
    PF_MOTION = "pf.motion";
    PF_REDUCE = "pf.reduce";
    PF_RESAMPLE = "pf.resample";

    RANGE_BATCH = "range.batch";

    SERVE_DRAIN = "serve.drain";

    SIM_CORRECT = "sim.correct";
    SIM_PHYSICS = "sim.physics";
    SIM_PREDICT = "sim.predict";

    SLAM_CORRECT = "slam.correct";
    SLAM_CORRELATIVE = "slam.correlative";
    SLAM_INSERT = "slam.insert";
    SLAM_LOOP_CLOSURE = "slam.loop_closure";
    SLAM_MATCH = "slam.match";
    SLAM_OPTIMIZE = "slam.optimize";
    SLAM_REFINE = "slam.refine";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_is_declared_once_across_both_kinds() {
        let all: Vec<&str> = COUNTERS
            .iter()
            .map(|c| c.as_str())
            .chain(SPANS.iter().map(|s| s.as_str()))
            .collect();
        let unique: BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is declared twice");
    }
}
