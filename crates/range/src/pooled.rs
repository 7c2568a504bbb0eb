//! A [`RangeMethod`] wrapper that runs batch casts on a persistent
//! [`raceloc_par::WorkerPool`] instead of spawning scoped threads per call.
//!
//! [`PooledCaster`] owns its inner method behind an `Arc` (workers hold the
//! other reference) and keeps a set of reusable `CastJob` buffers, so the
//! steady-state batch path performs **zero heap allocations and zero thread
//! spawns** — the property the fused particle pipeline (DESIGN.md §11)
//! builds on. The chunk layout is the same deterministic function used by
//! [`crate::RangeMethod::par_ranges_into`], so pooled results are
//! bit-identical to the scoped-thread and sequential paths for any thread
//! count.

use std::sync::{Arc, Mutex, OnceLock};

use raceloc_obs::Telemetry;
use raceloc_par::{
    chunk_spans, lock_unpoisoned, PoolJob, PoolStats, WorkerPool, DEFAULT_CHUNK_MIN,
};

use crate::{batch, RangeMethod};

/// One chunk of a batch cast: owned query/output buffers plus the output
/// offset the results scatter back to.
struct CastJob {
    start: usize,
    queries: Vec<(f64, f64, f64)>,
    out: Vec<f64>,
}

impl<M: RangeMethod + ?Sized> PoolJob<Arc<M>> for CastJob {
    fn run(&mut self, ctx: &Arc<M>) {
        self.out.clear();
        self.out.resize(self.queries.len(), 0.0);
        ctx.ranges_into(&self.queries, &mut self.out);
    }

    fn items(&self) -> usize {
        self.queries.len()
    }
}

/// A persistent-pool batch driver around any [`RangeMethod`].
///
/// The pool is spawned lazily on the first multi-threaded batch; with
/// `threads <= 1` every call stays on the caller thread (same chunk layout,
/// same results). Construction is cheap — wrap once, reuse forever.
///
/// # Examples
///
/// ```
/// use raceloc_map::{CellState, OccupancyGrid};
/// use raceloc_core::Point2;
/// use raceloc_range::{BresenhamCasting, PooledCaster, RangeMethod};
///
/// let mut grid = OccupancyGrid::new(50, 50, 0.2, Point2::ORIGIN);
/// grid.fill(CellState::Free);
/// for r in 0..50 { grid.set((49i64, r as i64).into(), CellState::Occupied); }
/// let caster = PooledCaster::new(BresenhamCasting::new(&grid, 15.0), 4);
/// let queries = vec![(1.0, 5.0, 0.0); 64];
/// let mut out = vec![0.0; 64];
/// caster.par_ranges_into(&queries, &mut out, 4);
/// assert!(out.iter().all(|&r| (r - out[0]).abs() < 1e-12));
/// ```
pub struct PooledCaster<M: ?Sized> {
    threads: usize,
    pool: OnceLock<WorkerPool<Arc<M>, CastJob>>,
    /// Reusable job buffers; a `Mutex` because the trait surface is `&self`.
    jobs: Mutex<Vec<CastJob>>,
    inner: Arc<M>,
}

impl<M: RangeMethod + 'static> PooledCaster<M> {
    /// Wraps `inner`, targeting `threads` pool workers (clamped to ≥ 1).
    pub fn new(inner: M, threads: usize) -> Self {
        Self::from_arc(Arc::new(inner), threads)
    }

    /// Wraps an already-shared method.
    pub fn from_arc(inner: Arc<M>, threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            pool: OnceLock::new(),
            jobs: Mutex::new(Vec::new()),
            inner,
        }
    }

    /// The wrapped range method.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Configured worker-thread target.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Pool counters, if the pool has been spawned (`None` before the first
    /// multi-threaded batch).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool.get().map(WorkerPool::stats)
    }

    /// Publishes pool counter deltas into `tel` (see
    /// [`WorkerPool::publish_stats`]); a no-op before the pool exists.
    pub fn publish_stats(&self, tel: &Telemetry) {
        if let Some(pool) = self.pool.get() {
            pool.publish_stats(tel);
        }
    }

    fn pool(&self) -> &WorkerPool<Arc<M>, CastJob> {
        self.pool
            .get_or_init(|| WorkerPool::new(Arc::clone(&self.inner), self.threads))
    }
}

impl<M: RangeMethod + 'static> RangeMethod for PooledCaster<M> {
    fn max_range(&self) -> f64 {
        self.inner.max_range()
    }

    fn range(&self, x: f64, y: f64, theta: f64) -> f64 {
        self.inner.range(x, y, theta)
    }

    fn ranges_into(&self, queries: &[(f64, f64, f64)], out: &mut [f64]) {
        self.inner.ranges_into(queries, out);
    }

    fn par_ranges_into(&self, queries: &[(f64, f64, f64)], out: &mut [f64], threads: usize) {
        assert_eq!(queries.len(), out.len(), "query/output length mismatch");
        if queries.is_empty() {
            return;
        }
        let threads = threads.min(self.threads);
        let spans: Vec<_> = chunk_spans(queries.len(), DEFAULT_CHUNK_MIN).collect();
        if threads <= 1 || spans.len() == 1 {
            // Same chunk layout, caller thread; results are identical.
            for span in spans {
                self.inner
                    .ranges_into(&queries[span.clone()], &mut out[span]);
            }
            batch::check_envelope(out, self.max_range());
            return;
        }
        let mut jobs = std::mem::take(&mut *lock_unpoisoned(&self.jobs));
        // Top up the buffer set once; steady-state batches reuse it.
        while jobs.len() < spans.len() {
            jobs.push(CastJob {
                start: 0,
                queries: Vec::new(),
                out: Vec::new(),
            });
        }
        let mut active: Vec<CastJob> = jobs.drain(..spans.len()).collect();
        for (job, span) in active.iter_mut().zip(&spans) {
            job.start = span.start;
            job.queries.clear();
            job.queries.extend_from_slice(&queries[span.clone()]);
        }
        self.pool().run_batch(&mut active);
        for job in &active {
            out[job.start..job.start + job.out.len()].copy_from_slice(&job.out);
        }
        // The pool hands jobs back in completion order; chunk sizes are
        // unequal, so park them in chunk order — a buffer sized for a short
        // span must not be reloaded with a long one next batch, or its
        // scratch regrows and the steady state allocates.
        active.sort_unstable_by_key(|j| j.start);
        jobs.append(&mut active);
        *lock_unpoisoned(&self.jobs) = jobs;
        batch::check_envelope(out, self.max_range());
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

impl<M: RangeMethod + std::fmt::Debug + ?Sized> std::fmt::Debug for PooledCaster<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledCaster")
            .field("threads", &self.threads)
            .field("pool_spawned", &self.pool.get().is_some())
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl<M: RangeMethod + 'static> Clone for PooledCaster<M> {
    /// Clones share the inner method but get their own (lazily spawned)
    /// pool and buffer set.
    fn clone(&self) -> Self {
        Self::from_arc(Arc::clone(&self.inner), self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::room_with_pillar;
    use crate::BresenhamCasting;
    use raceloc_obs::names;

    fn queries(n: usize) -> Vec<(f64, f64, f64)> {
        (0..n)
            .map(|i| {
                (
                    1.0 + (i % 17) as f64 * 0.5,
                    1.0 + (i % 13) as f64 * 0.6,
                    i as f64 * 0.37,
                )
            })
            .collect()
    }

    #[test]
    fn pooled_matches_sequential_bitwise() {
        let g = room_with_pillar();
        let inner = BresenhamCasting::new(&g, 20.0);
        let qs = queries(257);
        let mut seq = vec![0.0; qs.len()];
        inner.ranges_into(&qs, &mut seq);
        for threads in [1usize, 2, 4, 8] {
            let pooled = PooledCaster::new(BresenhamCasting::new(&g, 20.0), threads);
            let mut out = vec![0.0; qs.len()];
            pooled.par_ranges_into(&qs, &mut out, threads);
            assert_eq!(out, seq, "threads={threads}");
        }
    }

    #[test]
    fn pool_is_lazy_and_buffers_are_reused() {
        let g = room_with_pillar();
        let pooled = PooledCaster::new(BresenhamCasting::new(&g, 20.0), 2);
        assert!(pooled.pool_stats().is_none());
        let qs = queries(300);
        let mut out = vec![0.0; qs.len()];
        for _ in 0..3 {
            pooled.par_ranges_into(&qs, &mut out, 2);
        }
        let stats = pooled.pool_stats().expect("pool spawned");
        assert_eq!(stats.batches, 3);
        assert!(stats.jobs >= 3);
    }

    #[test]
    fn single_thread_request_stays_inline() {
        let g = room_with_pillar();
        let pooled = PooledCaster::new(BresenhamCasting::new(&g, 20.0), 4);
        let qs = queries(128);
        let mut out = vec![0.0; qs.len()];
        pooled.par_ranges_into(&qs, &mut out, 1);
        assert!(pooled.pool_stats().is_none(), "no pool for threads=1");
        let mut seq = vec![0.0; qs.len()];
        pooled.ranges_into(&qs, &mut seq);
        assert_eq!(out, seq);
    }

    #[test]
    fn publishes_pool_telemetry() {
        let g = room_with_pillar();
        let pooled = PooledCaster::new(BresenhamCasting::new(&g, 20.0), 2);
        let tel = Telemetry::enabled();
        pooled.publish_stats(&tel); // pre-spawn: no-op
        let qs = queries(300);
        let mut out = vec![0.0; qs.len()];
        pooled.par_ranges_into(&qs, &mut out, 2);
        pooled.publish_stats(&tel);
        let snap = tel.snapshot();
        assert_eq!(snap.counter(names::PAR_POOL_BATCHES.as_str()), Some(1));
        assert!(snap.counter(names::PAR_POOL_JOBS.as_str()).unwrap_or(0) >= 1);
    }

    #[test]
    fn clone_shares_method_not_pool() {
        let g = room_with_pillar();
        let pooled = PooledCaster::new(BresenhamCasting::new(&g, 20.0), 2);
        let qs = queries(300);
        let mut out = vec![0.0; qs.len()];
        pooled.par_ranges_into(&qs, &mut out, 2);
        let cloned = pooled.clone();
        assert!(cloned.pool_stats().is_none());
        let mut out2 = vec![0.0; qs.len()];
        cloned.par_ranges_into(&qs, &mut out2, 2);
        assert_eq!(out, out2);
    }
}
