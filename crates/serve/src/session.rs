//! Session identity, localizer specifications, and per-session state.

use raceloc_core::localizer::{DeadReckoning, Localizer};
use raceloc_core::{stream_keys, Rng64};
use raceloc_obs::{Snapshot, Telemetry};
use raceloc_pf::{SynPf, SynPfConfig};
use raceloc_range::MapArtifacts;
use raceloc_slam::{CartoLocalizer, CartoLocalizerConfig};
use std::fmt;
use std::sync::Arc;

/// Opaque handle to one localization session inside a
/// [`ServeEngine`](crate::ServeEngine).
///
/// Ids are assigned densely from zero in open order and are never reused,
/// so they double as the session's deterministic RNG stream key
/// (`Rng64::stream(engine_seed, stream_keys::serve_session(id))`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(
    clippy::disallowed_methods,
    reason = "the derived partial_cmp orders an integer id, which is total"
)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Which localizer a session runs. The engine owns parallelism and
/// randomness: SynPF sessions are forced to `threads = 1` (cross-session
/// batching fills the pool instead) and their seed is replaced with the
/// engine's per-session RNG stream.
// A spec is cloned once per `open_session`, never on the step path, so the
// variant size gap is irrelevant and boxing would only clutter the API.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum LocalizerSpec {
    /// The paper's SynPF Monte-Carlo filter over the bundle's range LUT.
    SynPf {
        /// Filter configuration; `seed` and `threads` are overridden.
        config: SynPfConfig,
        /// Enable augmented-MCL recovery from the bundle's grid.
        recovery: bool,
    },
    /// Cartographer pure localization (scan-to-map matching).
    Cartographer(CartoLocalizerConfig),
    /// Odometry integration only (the robustness floor).
    DeadReckoning,
}

impl LocalizerSpec {
    /// A short stable name for reports and JSONL meta lines.
    pub fn name(&self) -> &'static str {
        match self {
            LocalizerSpec::SynPf { .. } => "synpf",
            LocalizerSpec::Cartographer(_) => "cartographer",
            LocalizerSpec::DeadReckoning => "dead_reckoning",
        }
    }

    /// Builds the boxed localizer for a session over shared artifacts.
    ///
    /// `session_seed` replaces any configured PRNG seed; `tel` is attached
    /// where the localizer supports telemetry.
    pub(crate) fn build(
        &self,
        artifacts: &Arc<MapArtifacts>,
        session_seed: u64,
        tel: Telemetry,
    ) -> Box<dyn Localizer + Send> {
        match self {
            LocalizerSpec::SynPf { config, recovery } => {
                let mut config = config.clone();
                config.seed = session_seed;
                config.threads = 1;
                let mut pf = SynPf::from_artifacts(Arc::clone(artifacts), config);
                if *recovery {
                    pf.enable_recovery_from_artifacts();
                }
                pf.set_telemetry(tel);
                Box::new(pf)
            }
            LocalizerSpec::Cartographer(config) => {
                let mut loc = CartoLocalizer::from_artifacts(artifacts, *config);
                loc.set_telemetry(tel);
                Box::new(loc)
            }
            LocalizerSpec::DeadReckoning => Box::new(DeadReckoning::new()),
        }
    }
}

/// Derives the deterministic seed of a session from the engine seed and the
/// session id (a pure [`Rng64::stream`] draw — no global state).
pub fn session_seed(engine_seed: u64, id: SessionId) -> u64 {
    Rng64::stream(engine_seed, stream_keys::serve_session(id.0)).next_u64()
}

/// Per-session state owned by the engine's session table.
pub(crate) struct SessionSlot {
    /// The session's localizer (serial; the engine parallelizes across
    /// sessions, never within one).
    pub localizer: Box<dyn Localizer + Send>,
    /// Per-session telemetry handle (always enabled).
    pub tel: Telemetry,
    /// Localizer kind name, for summaries and records.
    pub name: &'static str,
    /// Steps completed so far (also the next step's sequence number).
    pub steps: u64,
    /// Requests of this session shed by backpressure.
    pub sheds: u64,
    /// Cache key of the artifact bundle the session was opened on.
    pub artifact_key: u64,
}

/// The terminal report of a closed session.
#[derive(Debug, Clone)]
pub struct SessionSummary {
    /// The closed session's id.
    pub id: SessionId,
    /// Localizer kind name.
    pub name: &'static str,
    /// Total steps executed.
    pub steps: u64,
    /// Requests shed by backpressure while this session was open.
    pub sheds: u64,
    /// Cache key of the artifact bundle the session ran on.
    pub artifact_key: u64,
    /// The session's final telemetry snapshot (spans + counters).
    pub snapshot: Snapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_seed_is_a_pure_stream_draw() {
        let a = session_seed(7, SessionId(3));
        let b = session_seed(7, SessionId(3));
        assert_eq!(a, b);
        assert_ne!(a, session_seed(7, SessionId(4)));
        assert_ne!(a, session_seed(8, SessionId(3)));
        assert_eq!(
            a,
            Rng64::stream(7, stream_keys::serve_session(3)).next_u64()
        );
    }

    #[test]
    fn spec_names_are_stable() {
        assert_eq!(
            LocalizerSpec::SynPf {
                config: SynPfConfig::default(),
                recovery: false,
            }
            .name(),
            "synpf"
        );
        assert_eq!(
            LocalizerSpec::Cartographer(CartoLocalizerConfig::default()).name(),
            "cartographer"
        );
        assert_eq!(LocalizerSpec::DeadReckoning.name(), "dead_reckoning");
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(SessionId(17).to_string(), "s17");
    }
}
