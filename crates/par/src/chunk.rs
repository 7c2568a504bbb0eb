//! Deterministic static chunk scheduling.
//!
//! The chunk layout of a batch is a pure function of the item count and the
//! configured minimum chunk size — never of the worker count, the host's
//! core count, or any runtime measurement. Workers may pick chunks up in
//! any order, but because each chunk covers a fixed, disjoint index span
//! and per-chunk results are written back into that span, the combined
//! output is bit-identical for any thread count.

use std::ops::Range;

/// Hard cap on the number of chunks a batch is split into.
///
/// A fixed constant (not "number of cores") so the layout is identical on
/// every machine. 64 chunks keep all realistic worker counts busy while the
/// per-chunk scheduling overhead stays negligible.
pub const MAX_CHUNKS: usize = 64;

/// Default minimum chunk size (items per chunk) when a caller has no better
/// domain knowledge. Matches [`crate::chunk_count`]'s docs.
pub const DEFAULT_CHUNK_MIN: usize = 64;

/// Number of chunks a batch of `items` is split into: one chunk per
/// `chunk_min` items, at least 1 (for a non-empty batch), at most
/// [`MAX_CHUNKS`]. Returns 0 only for an empty batch.
///
/// # Examples
///
/// ```
/// use raceloc_par::chunk_count;
///
/// assert_eq!(chunk_count(0, 64), 0);
/// assert_eq!(chunk_count(10, 64), 1); // fewer items than one chunk
/// assert_eq!(chunk_count(1200, 64), 18);
/// assert_eq!(chunk_count(1_000_000, 1), 64); // capped
/// ```
pub fn chunk_count(items: usize, chunk_min: usize) -> usize {
    if items == 0 {
        return 0;
    }
    (items / chunk_min.max(1)).clamp(1, MAX_CHUNKS)
}

/// The index span of chunk `idx` when `items` are split into `chunks`
/// balanced chunks: the first `items % chunks` chunks carry one extra item.
///
/// Returns an empty range when `chunks == 0` or `idx >= chunks`.
pub fn chunk_span(items: usize, chunks: usize, idx: usize) -> Range<usize> {
    if chunks == 0 || idx >= chunks {
        return 0..0;
    }
    let base = items / chunks;
    let rem = items % chunks;
    let start = idx * base + idx.min(rem);
    let len = base + usize::from(idx < rem);
    start..start + len
}

/// Iterator over the chunk spans of a batch, in index order.
///
/// Equivalent to `(0..chunk_count(items, chunk_min)).map(|i| chunk_span(..))`
/// but allocation-free and self-describing at call sites.
pub fn chunk_spans(items: usize, chunk_min: usize) -> impl Iterator<Item = Range<usize>> {
    let chunks = chunk_count(items, chunk_min);
    (0..chunks).map(move |idx| chunk_span(items, chunks, idx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_cover_every_index_exactly_once() {
        for items in [0usize, 1, 5, 63, 64, 65, 150, 1200, 4096, 100_000] {
            for chunk_min in [1usize, 16, 64, 257] {
                let mut next = 0usize;
                for span in chunk_spans(items, chunk_min) {
                    assert_eq!(span.start, next, "items={items} chunk_min={chunk_min}");
                    assert!(!span.is_empty());
                    next = span.end;
                }
                assert_eq!(next, items, "items={items} chunk_min={chunk_min}");
            }
        }
    }

    #[test]
    fn chunk_sizes_are_balanced() {
        let sizes: Vec<usize> = chunk_spans(1201, 64).map(|s| s.len()).collect();
        let min = sizes.iter().min().copied().unwrap();
        let max = sizes.iter().max().copied().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn chunks_respect_minimum_size() {
        for items in [64usize, 100, 1200, 10_000] {
            for span in chunk_spans(items, 64) {
                assert!(span.len() >= 64, "items={items}, span={span:?}");
            }
        }
    }

    #[test]
    fn count_is_capped_at_max_chunks() {
        assert_eq!(chunk_count(usize::MAX, 1), MAX_CHUNKS);
        assert!(chunk_spans(1_000_000, 1).count() <= MAX_CHUNKS);
    }

    #[test]
    fn layout_depends_only_on_items_and_minimum_chunk_size() {
        // The whole determinism argument: the layout is a pure function.
        let a: Vec<_> = chunk_spans(1200, 64).collect();
        let b: Vec<_> = chunk_spans(1200, 64).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(chunk_count(0, 64), 0);
        assert_eq!(chunk_count(10, 0), 10); // chunk_min clamped to 1
        assert_eq!(chunk_span(10, 0, 0), 0..0);
        assert_eq!(chunk_span(10, 2, 5), 0..0);
        assert_eq!(chunk_spans(0, 64).count(), 0);
    }
}
