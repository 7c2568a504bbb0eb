//! Central registry of [`Rng64::stream`](crate::Rng64::stream) key
//! namespaces (rule **R7**, DESIGN.md §10).
//!
//! Every counter-derived RNG stream in the workspace keys its draws with a
//! 64-bit stream index. Two subsystems that ever share a seed **must not**
//! share a key, or their "independent" noise streams silently correlate —
//! which would invalidate every paired comparison the fleet engine makes.
//! Before this module, the key layouts were hand-maintained conventions
//! scattered across four crates; now each namespace is declared here once,
//! with its seed *domain* and the region of key space it owns, and
//! pairwise disjointness inside a domain is proven at compile time (see
//! the `const` assertion below). `Rng64::stream` takes a [`StreamKey`],
//! and the constructors in this module are the only way to make one, so
//! an unregistered key does not compile.
//!
//! # Domains
//!
//! Keys are only comparable when the seeds they pair with can coincide.
//! The registry groups namespaces into *seed domains*:
//!
//! | domain | seeds drawn from | namespaces |
//! |---|---|---|
//! | `run` | per-run seed lineage (world seed, filter seed, fault-schedule seed — any of which may coincide) | `pf_motion`, `fault_scan`, `eval_filter` |
//! | `eval-master` | a fleet spec's master seed | `eval_world_cell` |
//! | `serve-engine` | a serve engine's configured seed | `serve_session` |
//! | `bench-driver` | constant seeds of bench/test traffic drivers | `bench_driver` |
//!
//! Disjointness is required (and proven) pairwise **within** each domain;
//! regions in different domains may overlap freely because their seeds
//! never alias by construction.
//!
//! # Layout (the `run` domain)
//!
//! ```text
//!   bit 63      56 55              32 31                0
//!        ┌────────┬──────────────────┬──────────────────┐
//!  pf_motion 0x00 │ epoch (24b, ≥ 1) │   chunk (32b)    │  [2^32, 2^56)
//!        ├────────┼──────────────────┴──────────────────┤
//!  fault_scan 0xFA│            step (56b)               │  [0xFA<<56, …]
//!        ├────────┴─────────────────────────────────────┤
//!  eval_filter    │            constant 0xF1            │  [0xF1, 0xF1]
//!        └──────────────────────────────────────────────┘
//! ```

/// A registered RNG stream key, the second argument of
/// [`Rng64::stream`](crate::Rng64::stream). Only the constructors of this
/// module make one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamKey(u64);

impl StreamKey {
    /// The raw 64-bit key.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

/// One registered stream-key namespace: who owns which region of the
/// 64-bit key space, under which seed domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamNamespace {
    /// Registry name; matches the constructor function below.
    pub name: &'static str,
    /// Seed domain the namespace keys under (disjointness is proven
    /// pairwise within a domain).
    pub domain: &'static str,
    /// Human-readable bit layout of the key.
    pub layout: &'static str,
    /// Lowest key the namespace can produce (inclusive).
    pub lo: u64,
    /// Highest key the namespace can produce (inclusive).
    pub hi: u64,
}

/// The workspace's registered namespaces.
pub const REGISTRY: [StreamNamespace; 6] = [
    StreamNamespace {
        name: "pf_motion",
        domain: "run",
        layout: "epoch:24 @ 32 | chunk:32 @ 0 (epoch >= 1)",
        lo: 0x0000_0001_0000_0000,
        hi: 0x00FF_FFFF_FFFF_FFFF,
    },
    StreamNamespace {
        name: "fault_scan",
        domain: "run",
        layout: "tag 0xFA @ 56 | step:56 @ 0",
        lo: 0xFA00_0000_0000_0000,
        hi: 0xFAFF_FFFF_FFFF_FFFF,
    },
    StreamNamespace {
        name: "eval_filter",
        domain: "run",
        layout: "constant 0xF1",
        lo: 0x0000_0000_0000_00F1,
        hi: 0x0000_0000_0000_00F1,
    },
    StreamNamespace {
        name: "eval_world_cell",
        domain: "eval-master",
        layout: "map:16 @ 48 | grip:8 @ 40 | scenario:8 @ 32 | replicate:32 @ 0",
        lo: 0x0000_0000_0000_0000,
        hi: 0xFFFF_FFFF_FFFF_FFFF,
    },
    StreamNamespace {
        name: "serve_session",
        domain: "serve-engine",
        layout: "session:32 @ 0",
        lo: 0x0000_0000_0000_0000,
        hi: 0x0000_0000_FFFF_FFFF,
    },
    StreamNamespace {
        name: "bench_driver",
        domain: "bench-driver",
        layout: "actor:32 @ 0",
        lo: 0x0000_0000_0000_0000,
        hi: 0x0000_0000_FFFF_FFFF,
    },
];

/// `const`-compatible string equality (no trait calls in `const fn`).
const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Whether the registry is sound: every region is a valid interval and no
/// two namespaces in the same seed domain overlap. Evaluated at compile
/// time by the assertion below, so an overlapping registration is a build
/// error, not a latent correlation bug.
pub const fn registry_is_sound() -> bool {
    let mut i = 0;
    while i < REGISTRY.len() {
        if REGISTRY[i].lo > REGISTRY[i].hi {
            return false;
        }
        let mut j = i + 1;
        while j < REGISTRY.len() {
            if str_eq(REGISTRY[i].domain, REGISTRY[j].domain)
                && REGISTRY[i].lo <= REGISTRY[j].hi
                && REGISTRY[j].lo <= REGISTRY[i].hi
            {
                return false;
            }
            j += 1;
        }
        i += 1;
    }
    true
}

const _: () = assert!(
    registry_is_sound(),
    "stream-key registry has an invalid or overlapping namespace"
);

/// Key of one particle chunk's motion stream: `(epoch << 32) | chunk`.
///
/// `epoch` is the filter's prediction counter (incremented before each
/// prediction, so always ≥ 1) and `chunk` the chunk index in the static
/// layout. 24 epoch bits cover ~4.8 days of 40 Hz stepping.
#[inline]
pub const fn pf_motion(epoch: u64, chunk: u64) -> StreamKey {
    debug_assert!(
        epoch >= 1 && epoch < (1 << 24),
        "pf_motion epoch out of range"
    );
    debug_assert!(chunk < (1 << 32), "pf_motion chunk out of range");
    StreamKey(((epoch & 0x00FF_FFFF) << 32) | (chunk & 0xFFFF_FFFF))
}

/// Key of the per-step fault-injection scan draw: `0xFA << 56 | step`.
#[inline]
pub const fn fault_scan(step: u64) -> StreamKey {
    debug_assert!(step < (1 << 56), "fault_scan step out of range");
    StreamKey(0xFA00_0000_0000_0000 | (step & 0x00FF_FFFF_FFFF_FFFF))
}

/// Key of the eval runner's filter-seed derivation draw (a single
/// reserved point, so filter noise and world noise are independent
/// streams of the same world seed).
#[inline]
pub const fn eval_filter() -> StreamKey {
    StreamKey(0xF1)
}

/// Key of one fleet cell's world-seed draw under the spec's master seed:
/// `map:16 | grip:8 | scenario:8 | replicate:32`.
#[inline]
pub const fn eval_world_cell(map: u64, grip: u64, scenario: u64, replicate: u32) -> StreamKey {
    StreamKey(
        ((map & 0xFFFF) << 48)
            | ((grip & 0xFF) << 40)
            | ((scenario & 0xFF) << 32)
            | replicate as u64,
    )
}

/// Key of one serve session's seed draw under the engine seed (the raw
/// session id; ids are engine-assigned and sequential).
#[inline]
pub const fn serve_session(id: u64) -> StreamKey {
    debug_assert!(id <= 0xFFFF_FFFF, "serve_session id out of range");
    StreamKey(id & 0xFFFF_FFFF)
}

/// Key of a bench/test traffic driver's per-actor input stream (seeded
/// with a constant driver seed, never a run seed).
#[inline]
pub const fn bench_driver(actor: u64) -> StreamKey {
    debug_assert!(actor <= 0xFFFF_FFFF, "bench_driver actor out of range");
    StreamKey(actor & 0xFFFF_FFFF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sound_at_runtime_too() {
        assert!(registry_is_sound());
    }

    #[test]
    fn constructors_reproduce_the_legacy_ad_hoc_keys_exactly() {
        // The PR 7 migration is behavior-preserving: each constructor must
        // return byte-for-byte the key the ad-hoc expression produced.
        for (epoch, chunk) in [
            (1u64, 0u64),
            (3, 1),
            (40_000, 15),
            ((1 << 24) - 1, u32::MAX as u64),
        ] {
            assert_eq!(pf_motion(epoch, chunk).get(), (epoch << 32) | chunk);
        }
        for step in [0u64, 1, 49, (1 << 56) - 1] {
            assert_eq!(fault_scan(step).get(), (0xFA << 56) | step);
        }
        assert_eq!(eval_filter().get(), 0xF1);
        for (m, g, s, r) in [
            (0u64, 0u64, 0u64, 0u32),
            (1, 1, 2, 19),
            (65_535, 255, 255, u32::MAX),
        ] {
            let legacy = ((m & 0xFFFF) << 48) | ((g & 0xFF) << 40) | ((s & 0xFF) << 32) | r as u64;
            assert_eq!(eval_world_cell(m, g, s, r).get(), legacy);
        }
        for id in [0u64, 3, 255, u32::MAX as u64] {
            assert_eq!(serve_session(id).get(), id);
            assert_eq!(bench_driver(id).get(), id);
        }
    }

    #[test]
    fn constructed_keys_land_inside_their_declared_region() {
        let region = |name: &str| {
            REGISTRY
                .iter()
                .find(|n| n.name == name)
                .map(|n| (n.lo, n.hi))
                .expect("registered")
        };
        let check = |name: &str, key: u64| {
            let (lo, hi) = region(name);
            assert!(
                (lo..=hi).contains(&key),
                "{name}: key {key:#x} outside [{lo:#x}, {hi:#x}]"
            );
        };
        check("pf_motion", pf_motion(1, 0).get());
        check("pf_motion", pf_motion((1 << 24) - 1, u32::MAX as u64).get());
        check("fault_scan", fault_scan(0).get());
        check("fault_scan", fault_scan((1 << 56) - 1).get());
        check("eval_filter", eval_filter().get());
        check(
            "eval_world_cell",
            eval_world_cell(65_535, 255, 255, u32::MAX).get(),
        );
        check("serve_session", serve_session(u32::MAX as u64).get());
        check("bench_driver", bench_driver(u32::MAX as u64).get());
    }

    #[test]
    fn run_domain_namespaces_are_pairwise_disjoint_by_construction() {
        // The three namespaces that can share a seed lineage: a pf_motion
        // key can never equal a fault_scan or eval_filter key.
        let motion = pf_motion(1, 0).get()..=pf_motion((1 << 24) - 1, u32::MAX as u64).get();
        assert!(!motion.contains(&fault_scan(0).get()));
        assert!(!motion.contains(&eval_filter().get()));
        assert!(fault_scan(0).get() > *motion.end());
        assert!(eval_filter().get() < *motion.start());
    }

    #[test]
    fn overlap_detection_rejects_a_colliding_registration() {
        // Sanity-check the const machinery on a synthetic collision.
        const fn collides(a: &StreamNamespace, b: &StreamNamespace) -> bool {
            str_eq(a.domain, b.domain) && a.lo <= b.hi && b.lo <= a.hi
        }
        let a = StreamNamespace {
            name: "a",
            domain: "run",
            layout: "",
            lo: 0x100,
            hi: 0x1FF,
        };
        let b = StreamNamespace {
            name: "b",
            domain: "run",
            layout: "",
            lo: 0x180,
            hi: 0x200,
        };
        let c = StreamNamespace {
            name: "c",
            domain: "other",
            layout: "",
            lo: 0x180,
            hi: 0x200,
        };
        assert!(collides(&a, &b));
        assert!(!collides(&a, &c), "different domains never collide");
    }
}
