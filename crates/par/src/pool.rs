//! Long-lived worker pool exchanging owned, reusable job buffers.
//!
//! The pool is deliberately minimal: a `Mutex<VecDeque>` job queue, two
//! condvars, and `threads` OS threads that live as long as the pool.
//! Jobs are fully owned values (buffers included) that round-trip back to
//! the caller after each batch, so the steady-state hot path performs no
//! heap allocation and no thread spawn. Determinism does not depend on the
//! pool at all — each job writes a disjoint output span fixed by the
//! [`crate::chunk`] layout — so workers may pick chunks up in any order.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use raceloc_obs::{names, CounterName, Stopwatch, Telemetry};

use crate::chunk::MAX_CHUNKS;

/// A unit of work executed on a pool worker.
///
/// Implementations own all their inputs and outputs; the shared read-only
/// context `C` (typically an `Arc` of a map or sensor model) is provided by
/// the pool at run time.
pub trait PoolJob<C>: Send {
    /// Execute the job against the shared context.
    fn run(&mut self, ctx: &C);

    /// Number of items this job covers (used for the chunk-size histogram).
    fn items(&self) -> usize {
        1
    }
}

/// Chunk-size histogram buckets published by [`WorkerPool::publish_stats`].
/// Upper bounds are inclusive; the last bucket is open-ended.
const CHUNK_BUCKETS: [(usize, CounterName); 6] = [
    (64, names::PAR_POOL_CHUNK_LE_64),
    (128, names::PAR_POOL_CHUNK_LE_128),
    (256, names::PAR_POOL_CHUNK_LE_256),
    (512, names::PAR_POOL_CHUNK_LE_512),
    (1024, names::PAR_POOL_CHUNK_LE_1024),
    (usize::MAX, names::PAR_POOL_CHUNK_GT_1024),
];

fn bucket_index(items: usize) -> usize {
    CHUNK_BUCKETS
        .iter()
        .position(|(bound, _)| items <= *bound)
        .unwrap_or(CHUNK_BUCKETS.len() - 1)
}

/// Cumulative pool counters since construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolStats {
    /// Worker threads owned by the pool.
    pub threads: usize,
    /// Jobs (chunks) executed.
    pub jobs: u64,
    /// Batches submitted through [`WorkerPool::run_batch`].
    pub batches: u64,
    /// Total seconds workers spent inside [`PoolJob::run`].
    pub busy_seconds: f64,
    /// Largest queue depth ever observed at submission time.
    pub queue_peak: usize,
    /// Chunk-size histogram; buckets match `CHUNK_BUCKETS`.
    pub chunk_hist: [u64; 6],
}

#[derive(Default)]
struct StatsInner {
    jobs: u64,
    batches: u64,
    busy_seconds: f64,
    queue_peak: usize,
    chunk_hist: [u64; 6],
}

struct State<J> {
    queue: VecDeque<J>,
    done: Vec<J>,
    in_flight: usize,
    expected: usize,
    shutdown: bool,
    stats: StatsInner,
    /// What `publish_stats` has already pushed into a `Telemetry`.
    published: StatsInner,
}

struct Shared<C, J> {
    ctx: C,
    state: Mutex<State<J>>,
    work_ready: Condvar,
    batch_done: Condvar,
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// A worker panicking mid-job must not take the whole localizer down; the
/// state a panicked job could leave behind is owned by the job value itself,
/// never by the shared queue, so poison recovery is sound here. Exported for
/// the other hot-path crates, which share the same no-panic policy (R1).
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

use lock_unpoisoned as lock;

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Persistent worker pool over a shared read-only context `C` and owned job
/// type `J`.
///
/// Created once, reused for every batch; see the crate docs for the
/// determinism argument and an example. Batches are serialized internally,
/// so `run_batch` may be called from a `&self` borrow without external
/// locking.
pub struct WorkerPool<C, J> {
    shared: Arc<Shared<C, J>>,
    workers: Vec<JoinHandle<()>>,
    /// Serializes batches: exactly one `run_batch` owns the queue at a time.
    batch_gate: Mutex<()>,
}

impl<C, J> WorkerPool<C, J>
where
    C: Send + Sync + 'static,
    J: PoolJob<C> + 'static,
{
    /// Spawn a pool with `threads` workers (clamped to at least 1) over the
    /// shared context.
    ///
    /// If the OS refuses to spawn some workers the pool degrades to fewer
    /// threads — results are unaffected because the chunk layout never
    /// depends on the worker count. With zero live workers, batches run
    /// inline on the calling thread.
    pub fn new(ctx: C, threads: usize) -> Self {
        let shared = Arc::new(Shared {
            ctx,
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(MAX_CHUNKS),
                done: Vec::with_capacity(MAX_CHUNKS),
                in_flight: 0,
                expected: 0,
                shutdown: false,
                stats: StatsInner::default(),
                published: StatsInner::default(),
            }),
            work_ready: Condvar::new(),
            batch_done: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(threads.max(1));
        for idx in 0..threads.max(1) {
            let shared = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("raceloc-par-{idx}"));
            if let Ok(handle) = builder.spawn(move || worker_loop(&shared)) {
                workers.push(handle);
            }
        }
        Self {
            shared,
            workers,
            batch_gate: Mutex::new(()),
        }
    }

    /// Number of live worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Execute every job in `jobs`, blocking until all have finished.
    ///
    /// Jobs are drained into the pool and handed back through the same
    /// vector once complete, **in unspecified order** — jobs must locate
    /// their output span themselves (e.g. via a stored start index). The
    /// vector's buffers are reused across calls, so steady-state batches
    /// allocate nothing.
    pub fn run_batch(&self, jobs: &mut Vec<J>) {
        if jobs.is_empty() {
            return;
        }
        let _gate = lock(&self.batch_gate);
        if self.workers.is_empty() {
            // Spawn-failure fallback: run the same chunk layout inline.
            let sw = Stopwatch::start();
            let mut done = 0u64;
            let mut hist = [0u64; 6];
            for job in jobs.iter_mut() {
                hist[bucket_index(job.items())] += 1;
                job.run(&self.shared.ctx);
                done += 1;
            }
            let busy = sw.elapsed_seconds();
            let mut st = lock(&self.shared.state);
            st.stats.jobs += done;
            st.stats.batches += 1;
            st.stats.busy_seconds += busy;
            for (slot, n) in st.stats.chunk_hist.iter_mut().zip(hist) {
                *slot += n;
            }
            return;
        }
        let expected = jobs.len();
        {
            let mut st = lock(&self.shared.state);
            st.queue.extend(jobs.drain(..));
            st.expected = expected;
            let depth = st.queue.len();
            st.stats.queue_peak = st.stats.queue_peak.max(depth);
            st.stats.batches += 1;
        }
        self.shared.work_ready.notify_all();
        let mut st = lock(&self.shared.state);
        while st.done.len() < expected {
            st = wait(&self.shared.batch_done, st);
        }
        st.expected = 0;
        // `jobs` is empty after the drain above; swapping hands the filled
        // `done` buffer back and parks the caller's empty one for reuse.
        std::mem::swap(jobs, &mut st.done);
    }

    /// Cumulative counters since the pool was created.
    pub fn stats(&self) -> PoolStats {
        let st = lock(&self.shared.state);
        PoolStats {
            threads: self.workers.len(),
            jobs: st.stats.jobs,
            batches: st.stats.batches,
            busy_seconds: st.stats.busy_seconds,
            queue_peak: st.stats.queue_peak,
            chunk_hist: st.stats.chunk_hist,
        }
    }

    /// Push the counters accumulated since the previous call into `tel`.
    ///
    /// Telemetry counters are add-only, so this publishes deltas:
    /// `par.pool.jobs`, `par.pool.batches`, the `par.pool.chunk_*`
    /// histogram, and `par.pool.queue_peak` (delta of a running maximum, so
    /// the cumulative counter equals the peak). Worker busy time lands on
    /// the `par.pool.busy` span.
    pub fn publish_stats(&self, tel: &Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        let mut st = lock(&self.shared.state);
        let jobs = st.stats.jobs - st.published.jobs;
        let batches = st.stats.batches - st.published.batches;
        let busy = st.stats.busy_seconds - st.published.busy_seconds;
        let peak = st.stats.queue_peak - st.published.queue_peak;
        let mut hist_delta = [0u64; 6];
        for (i, slot) in hist_delta.iter_mut().enumerate() {
            *slot = st.stats.chunk_hist[i] - st.published.chunk_hist[i];
        }
        st.published.jobs = st.stats.jobs;
        st.published.batches = st.stats.batches;
        st.published.busy_seconds = st.stats.busy_seconds;
        st.published.queue_peak = st.stats.queue_peak;
        st.published.chunk_hist = st.stats.chunk_hist;
        drop(st);
        if jobs > 0 {
            tel.add(names::PAR_POOL_JOBS, jobs);
        }
        if batches > 0 {
            tel.add(names::PAR_POOL_BATCHES, batches);
        }
        if peak > 0 {
            tel.add(names::PAR_POOL_QUEUE_PEAK, peak as u64);
        }
        if busy > 0.0 {
            tel.record_span(names::PAR_POOL_BUSY, busy);
        }
        for (i, (_, name)) in CHUNK_BUCKETS.iter().enumerate() {
            if hist_delta[i] > 0 {
                tel.add(*name, hist_delta[i]);
            }
        }
    }
}

fn worker_loop<C, J: PoolJob<C>>(shared: &Shared<C, J>) {
    loop {
        let mut job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.queue.pop_front() {
                    st.in_flight += 1;
                    break job;
                }
                st = wait(&shared.work_ready, st);
            }
        };
        let items = job.items();
        let sw = Stopwatch::start();
        job.run(&shared.ctx);
        let busy = sw.elapsed_seconds();
        let mut st = lock(&shared.state);
        st.stats.jobs += 1;
        st.stats.busy_seconds += busy;
        st.stats.chunk_hist[bucket_index(items)] += 1;
        st.in_flight -= 1;
        st.done.push(job);
        if st.done.len() >= st.expected && st.in_flight == 0 {
            shared.batch_done.notify_all();
        }
    }
}

impl<C, J> Drop for WorkerPool<C, J> {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<C, J> std::fmt::Debug for WorkerPool<C, J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{chunk_span, chunk_spans};

    /// Scales its span of a shared input by a context factor.
    struct Scale {
        start: usize,
        input: Vec<f64>,
        output: Vec<f64>,
    }

    impl PoolJob<Arc<f64>> for Scale {
        fn run(&mut self, ctx: &Arc<f64>) {
            self.output.clear();
            self.output.extend(self.input.iter().map(|v| v * **ctx));
        }

        fn items(&self) -> usize {
            self.input.len()
        }
    }

    fn run_scaled(threads: usize, items: usize) -> Vec<f64> {
        let data: Vec<f64> = (0..items).map(|i| i as f64).collect();
        let pool: WorkerPool<Arc<f64>, Scale> = WorkerPool::new(Arc::new(3.0), threads);
        let mut jobs: Vec<Scale> = chunk_spans(items, 16)
            .map(|span| Scale {
                start: span.start,
                input: data[span.clone()].to_vec(),
                output: Vec::new(),
            })
            .collect();
        pool.run_batch(&mut jobs);
        let mut out = vec![0.0; items];
        for job in &jobs {
            out[job.start..job.start + job.output.len()].copy_from_slice(&job.output);
        }
        out
    }

    #[test]
    fn batch_results_are_identical_for_any_thread_count() {
        let reference = run_scaled(1, 500);
        assert_eq!(reference.len(), 500);
        assert_eq!(reference[10], 30.0);
        for threads in [2, 4, 8] {
            assert_eq!(run_scaled(threads, 500), reference, "threads={threads}");
        }
    }

    #[test]
    fn buffers_round_trip_and_pool_is_reusable() {
        let pool: WorkerPool<Arc<f64>, Scale> = WorkerPool::new(Arc::new(2.0), 3);
        let mut jobs = vec![Scale {
            start: 0,
            input: vec![1.0, 2.0],
            output: Vec::new(),
        }];
        for _ in 0..5 {
            pool.run_batch(&mut jobs);
            assert_eq!(jobs.len(), 1);
            assert_eq!(jobs[0].output, [2.0, 4.0]);
        }
        let stats = pool.stats();
        assert_eq!(stats.jobs, 5);
        assert_eq!(stats.batches, 5);
        assert!(stats.busy_seconds >= 0.0);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool: WorkerPool<Arc<f64>, Scale> = WorkerPool::new(Arc::new(1.0), 2);
        let mut jobs: Vec<Scale> = Vec::new();
        pool.run_batch(&mut jobs);
        assert_eq!(pool.stats().batches, 0);
    }

    #[test]
    fn zero_thread_request_is_clamped() {
        let pool: WorkerPool<Arc<f64>, Scale> = WorkerPool::new(Arc::new(1.0), 0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn stats_track_chunk_histogram_and_queue_peak() {
        let items = 400;
        let data: Vec<f64> = (0..items).map(|i| i as f64).collect();
        let pool: WorkerPool<Arc<f64>, Scale> = WorkerPool::new(Arc::new(1.0), 2);
        let mut jobs: Vec<Scale> = chunk_spans(items, 100)
            .map(|span| Scale {
                start: span.start,
                input: data[span.clone()].to_vec(),
                output: Vec::new(),
            })
            .collect();
        let n_jobs = jobs.len() as u64;
        pool.run_batch(&mut jobs);
        let stats = pool.stats();
        assert_eq!(stats.jobs, n_jobs);
        assert!(stats.queue_peak >= 1);
        // 400 items over chunk_min=100 → 4 chunks of 100 items each.
        assert_eq!(stats.chunk_hist[bucket_index(100)], n_jobs);
    }

    #[test]
    fn publish_stats_emits_deltas_into_telemetry() {
        let tel = Telemetry::enabled();
        let pool: WorkerPool<Arc<f64>, Scale> = WorkerPool::new(Arc::new(1.0), 2);
        let mut jobs = vec![Scale {
            start: 0,
            input: vec![1.0; 32],
            output: Vec::new(),
        }];
        pool.run_batch(&mut jobs);
        pool.publish_stats(&tel);
        let snap = tel.snapshot();
        assert_eq!(snap.counter(names::PAR_POOL_JOBS.as_str()), Some(1));
        assert_eq!(snap.counter(names::PAR_POOL_BATCHES.as_str()), Some(1));
        assert_eq!(snap.counter(names::PAR_POOL_CHUNK_LE_64.as_str()), Some(1));

        // A second publish with no new work adds nothing.
        pool.publish_stats(&tel);
        assert_eq!(
            tel.snapshot().counter(names::PAR_POOL_JOBS.as_str()),
            Some(1)
        );

        // Another batch publishes only the delta; the counter accumulates.
        pool.run_batch(&mut jobs);
        pool.publish_stats(&tel);
        assert_eq!(
            tel.snapshot().counter(names::PAR_POOL_JOBS.as_str()),
            Some(2)
        );
    }

    #[test]
    fn publish_stats_on_disabled_telemetry_is_free() {
        let tel = Telemetry::disabled();
        let pool: WorkerPool<Arc<f64>, Scale> = WorkerPool::new(Arc::new(1.0), 1);
        pool.publish_stats(&tel);
        assert!(tel
            .snapshot()
            .counter(names::PAR_POOL_JOBS.as_str())
            .is_none());
    }

    #[test]
    fn spans_line_up_with_job_starts() {
        // The intended usage pattern: jobs are built from chunk_spans and
        // carry their start index, so scatter-back never overlaps.
        let items = 257;
        let chunks: Vec<_> = chunk_spans(items, 32).collect();
        for (idx, span) in chunks.iter().enumerate() {
            assert_eq!(*span, chunk_span(items, chunks.len(), idx));
        }
    }
}
