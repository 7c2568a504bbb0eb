//! The workspace's single gateway to the clock.
//!
//! The workspace `clippy.toml` disallows `Instant::now` and `SystemTime`
//! everywhere (determinism rule R3, DESIGN.md §10): estimator *behaviour*
//! must be a pure function of its inputs and seed, never of how fast the
//! host happens to run. Timing that exists purely to be *reported*
//! (per-stage latency in diagnostics, span telemetry, bench tables)
//! funnels through [`Stopwatch`] instead, whose one clock read is the only
//! allowed one in the tree.
//!
//! # Examples
//!
//! ```
//! use raceloc_obs::Stopwatch;
//!
//! let sw = Stopwatch::start();
//! let seconds = sw.elapsed_seconds();
//! assert!(seconds >= 0.0);
//! ```

use std::time::Instant;

/// A monotonic stopwatch wrapping [`std::time::Instant`].
///
/// This is deliberately minimal: it can only measure an elapsed duration,
/// not read absolute time, so code holding one cannot branch on the date or
/// synchronize with other clocks — the measured value is for *reporting*
/// (diagnostics stages, telemetry spans), never for control flow.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a new stopwatch at the current monotonic instant.
    #[inline]
    #[allow(
        clippy::disallowed_methods,
        reason = "the one sanctioned clock read; the value is only ever reported"
    )]
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    #[inline]
    pub fn elapsed_seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic_and_nonnegative() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_seconds();
        let b = sw.elapsed_seconds();
        assert!(a >= 0.0);
        assert!(b >= a);
    }

    #[test]
    fn copies_share_the_start_instant() {
        let sw = Stopwatch::start();
        let copy = sw;
        assert!(copy.elapsed_seconds() >= 0.0);
        assert!(sw.elapsed_seconds() >= 0.0);
    }
}
