#![deny(missing_docs)]
#![forbid(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

//! Persistent deterministic worker pool for the localization hot path.
//!
//! The paper's 1.25 ms CPU sensor update relies on `rangelibc`-style batched
//! ray casting; the reproduction originally paid a fresh
//! `std::thread::scope` spawn on *every* correction step. This crate
//! replaces that with a long-lived pool ([`WorkerPool`]) that is created
//! once and fed owned, reusable job buffers, so the steady-state hot path
//! performs **zero heap allocations and zero thread spawns**.
//!
//! Two properties are load-bearing (DESIGN.md §11):
//!
//! 1. **Deterministic static chunking** ([`chunk`]): the way a batch of `n`
//!    items is split into chunks depends only on `n` and the configured
//!    minimum chunk size — never on the worker count or the host's core
//!    count. Since every chunk writes a disjoint output span and chunk
//!    results are combined in chunk order, results are bit-identical for
//!    any thread count (rule R3 keeps holding).
//! 2. **Safe Rust only**: workers own an `Arc` of an immutable context and
//!    exchange fully owned job values through a `Mutex<VecDeque>` + condvar
//!    queue, so no `unsafe`, no scoped-lifetime tricks, and no external
//!    dependency is needed.
//!
//! # Examples
//!
//! ```
//! use raceloc_par::{PoolJob, WorkerPool};
//! use std::sync::Arc;
//!
//! struct Square { start: usize, values: Vec<f64> }
//! impl PoolJob<Arc<()>> for Square {
//!     fn run(&mut self, _ctx: &Arc<()>) {
//!         for v in &mut self.values { *v *= *v; }
//!     }
//! }
//!
//! let pool = WorkerPool::new(Arc::new(()), 4);
//! let mut jobs = vec![Square { start: 0, values: vec![2.0, 3.0] }];
//! pool.run_batch(&mut jobs);
//! assert_eq!(jobs[0].values, [4.0, 9.0]);
//! ```

pub mod chunk;
pub mod fnjob;
pub mod pool;

pub use chunk::{chunk_count, chunk_span, chunk_spans, DEFAULT_CHUNK_MIN, MAX_CHUNKS};
pub use fnjob::FnJob;
pub use pool::{lock_unpoisoned, PoolJob, PoolStats, WorkerPool};
