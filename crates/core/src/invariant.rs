//! Runtime invariants for the numeric kernels — the dynamic half of the
//! correctness story whose static half is the workspace lint wall
//! (DESIGN.md §10).
//!
//! Clippy's forbid list keeps the hot paths from *panicking by accident*
//! (no `unwrap`, `expect` or `panic!`, no `partial_cmp`); this module lets
//! them *assert on purpose* in debug builds. [`debug_invariant!`] is the
//! project-wide assertion macro: it documents a numeric contract at the
//! point where it must hold (particle weights normalized, ranges within
//! the sensor envelope, optimized poses finite) and vanishes entirely from
//! release binaries, so the paper's latency numbers (Table III) are
//! measured on exactly the code that ships.
//!
//! Call sites use `debug_invariant!` rather than `debug_assert!` so that
//! (a) the failure message carries the module path and a project-standard
//! prefix greppable in CI logs, and (b) a bare `panic!` stays banned in
//! the same crates.
//!
//! # Examples
//!
//! ```
//! use raceloc_core::debug_invariant;
//!
//! let weights = [0.25f64; 4];
//! let sum: f64 = weights.iter().sum();
//! debug_invariant!((sum - 1.0).abs() < 1e-9, "weights must be normalized");
//! ```

/// `true` when invariant checks are compiled in (debug builds and
/// `cargo test`), `false` in `--release`.
///
/// Exposed as a `const` so [`debug_invariant!`] expands to an
/// `if false { .. }` in release builds that the optimizer removes entirely,
/// and so tests can assert the compile-time state they run under.
pub const ENABLED: bool = cfg!(debug_assertions);

/// Cold failure path shared by every [`debug_invariant!`] expansion.
///
/// Kept out-of-line so the in-line cost of a passing check is a single
/// predictable branch.
///
/// # Panics
///
/// Always — that is its job. Only reachable from debug builds.
#[cold]
#[inline(never)]
pub fn invariant_failed(module: &str, line: u32, detail: &str) -> ! {
    panic!("invariant violated at {module}:{line}: {detail}");
}

/// Asserts a numeric-kernel invariant in debug builds; compiled out in
/// release.
///
/// The first argument is the condition; optional further arguments are a
/// `format!` message (defaults to the stringified condition). The message
/// arguments are only evaluated when the invariant fails, so call sites
/// may format expensive diagnostics freely.
///
/// # Examples
///
/// ```
/// use raceloc_core::debug_invariant;
///
/// let r = 4.2f64;
/// let max_range = 10.0;
/// debug_invariant!(r.is_finite() && r <= max_range, "range {r} beyond {max_range}");
/// ```
///
/// A failing invariant panics in debug builds only:
///
/// ```should_panic
/// use raceloc_core::debug_invariant;
///
/// # if !raceloc_core::invariant::ENABLED { panic!("compiled out"); }
/// debug_invariant!(1.0f64 < 0.0, "impossible ordering");
/// ```
#[macro_export]
macro_rules! debug_invariant {
    ($cond:expr $(,)?) => {
        $crate::debug_invariant!($cond, "{}", stringify!($cond))
    };
    ($cond:expr, $($msg:tt)+) => {
        if $crate::invariant::ENABLED && !($cond) {
            $crate::invariant::invariant_failed(
                module_path!(),
                line!(),
                &format!($($msg)+),
            );
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn passing_invariant_is_silent() {
        debug_invariant!(1 + 1 == 2);
        debug_invariant!(true, "never printed {}", 42);
    }

    // Under `cargo test` (debug profile) the macro must be live …
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "invariant violated")]
    fn failing_invariant_panics_in_debug() {
        debug_invariant!(1 + 1 == 3, "arithmetic broke: {}", 1 + 1);
    }

    // … and under `cargo test --release` it must be compiled out: the same
    // failing condition is a no-op.
    #[cfg(not(debug_assertions))]
    #[test]
    fn failing_invariant_is_compiled_out_in_release() {
        debug_invariant!(1 + 1 == 3, "must not evaluate");
        assert!(!super::ENABLED);
    }

    #[test]
    fn enabled_mirrors_profile() {
        assert_eq!(super::ENABLED, cfg!(debug_assertions));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn message_carries_module_and_detail() {
        let err = std::panic::catch_unwind(|| {
            debug_invariant!(false, "weight {} not finite", f64::NAN);
        })
        .expect_err("must panic in debug");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("invariant violated"), "got: {msg}");
        assert!(msg.contains("invariant::tests"), "got: {msg}");
        assert!(msg.contains("weight NaN not finite"), "got: {msg}");
    }
}
