//! Multi-threaded batch ray casting.
//!
//! `rangelibc` offers a GPU mode that parallelizes the per-particle,
//! per-beam expected-range computation. This module is the CPU substitute
//! (DESIGN.md §1, §11): the query batch is split by the deterministic static
//! chunk layout from [`raceloc_par::chunk`] and the chunks are drained by
//! scoped OS threads. Because every chunk writes a disjoint output span in
//! query order, results are bit-identical for any thread count.
//!
//! The entry point is [`crate::RangeMethod::par_ranges_into`], exposed as a
//! provided trait method so callers take parallelism through one
//! object-safe surface. Long-lived callers should prefer
//! [`crate::PooledCaster`], which runs the same chunk layout on a
//! persistent [`raceloc_par::WorkerPool`] instead of spawning threads per
//! batch.

use raceloc_par::{chunk_spans, lock_unpoisoned, DEFAULT_CHUNK_MIN};
use std::sync::Mutex;

use crate::RangeMethod;

/// The shared chunk-fanning implementation behind
/// [`RangeMethod::par_ranges_into`].
pub(crate) fn chunked_cast<M: RangeMethod + ?Sized>(
    method: &M,
    queries: &[(f64, f64, f64)],
    out: &mut [f64],
    threads: usize,
) {
    assert_eq!(queries.len(), out.len(), "query/output length mismatch");
    if queries.is_empty() {
        return;
    }
    // Split the output into the deterministic chunk layout. The layout is a
    // pure function of the batch size, so the spans — and therefore every
    // written value — are independent of `threads`.
    type Chunk<'a> = (&'a [(f64, f64, f64)], &'a mut [f64]);
    let mut work: Vec<Chunk<'_>> = Vec::new();
    let mut rest = &mut *out;
    let mut consumed = 0usize;
    for span in chunk_spans(queries.len(), DEFAULT_CHUNK_MIN) {
        let (head, tail) = rest.split_at_mut(span.len());
        work.push((&queries[span.clone()], head));
        rest = tail;
        consumed = span.end;
    }
    debug_assert_eq!(consumed, queries.len());

    let workers = threads.max(1).min(work.len());
    if workers == 1 {
        for (q_chunk, o_chunk) in work {
            method.ranges_into(q_chunk, o_chunk);
        }
    } else {
        let work = Mutex::new(work);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let job = lock_unpoisoned(&work).pop();
                    match job {
                        Some((q_chunk, o_chunk)) => method.ranges_into(q_chunk, o_chunk),
                        None => break,
                    }
                });
            }
        });
    }
    check_envelope(out, method.max_range());
}

/// Debug-build envelope check shared by the batch drivers: zero is admitted
/// for casts that start inside occupied space; anything non-finite,
/// negative, or beyond the sensor envelope is a kernel bug.
#[allow(unused_variables)]
pub(crate) fn check_envelope(out: &[f64], max_range: f64) {
    raceloc_core::debug_invariant!(
        out.iter()
            .all(|r| r.is_finite() && *r >= 0.0 && *r <= max_range + 1e-9),
        "batch ranges must lie in [0, max_range = {}]",
        max_range
    );
}

#[cfg(test)]
mod tests {
    use crate::testutil::room_with_pillar;
    use crate::BresenhamCasting;
    use crate::RangeMethod;
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
    fn parallel_matches_sequential() {
        let g = room_with_pillar();
        let caster = BresenhamCasting::new(&g, 20.0);
        let qs = queries(257); // deliberately not a multiple of threads
        let mut seq = vec![0.0; qs.len()];
        caster.ranges_into(&qs, &mut seq);
        for threads in [2, 3, 4, 8] {
            let mut par = vec![0.0; qs.len()];
            caster.par_ranges_into(&qs, &mut par, threads);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn single_thread_path() {
        let g = room_with_pillar();
        let caster = BresenhamCasting::new(&g, 20.0);
        let qs = queries(10);
        let mut out = vec![0.0; 10];
        caster.par_ranges_into(&qs, &mut out, 1);
        assert!(out.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn empty_batch_is_noop() {
        let g = room_with_pillar();
        let caster = BresenhamCasting::new(&g, 20.0);
        let mut out: Vec<f64> = Vec::new();
        caster.par_ranges_into(&[], &mut out, 4);
    }

    #[test]
    fn more_threads_than_queries() {
        let g = room_with_pillar();
        let caster = BresenhamCasting::new(&g, 20.0);
        let qs = queries(3);
        let mut out = vec![0.0; 3];
        caster.par_ranges_into(&qs, &mut out, 64);
        let mut seq = vec![0.0; 3];
        caster.ranges_into(&qs, &mut seq);
        assert_eq!(out, seq);
    }

    #[test]
    fn traced_variant_records_span_and_counter() {
        let g = room_with_pillar();
        let caster = BresenhamCasting::new(&g, 20.0);
        let qs = queries(64);
        let tel = raceloc_obs::Telemetry::enabled();
        let mut out = vec![0.0; qs.len()];
        caster.par_ranges_traced(&qs, &mut out, 2, &tel);
        let snap = tel.snapshot();
        assert_eq!(snap.counter(names::RANGE_QUERIES.as_str()), Some(64));
        let span = snap
            .span(names::RANGE_BATCH.as_str())
            .expect("span recorded");
        assert_eq!(span.count, 1);
        assert!(span.total_seconds >= 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let g = room_with_pillar();
        let caster = BresenhamCasting::new(&g, 20.0);
        let mut out = vec![0.0; 2];
        caster.par_ranges_into(&queries(5), &mut out, 2);
    }
}
