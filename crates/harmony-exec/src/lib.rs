#![warn(missing_docs)]

//! Parallel evaluation engine for the harmony workspace.
//!
//! Every expensive step of the tuning pipeline — §3 sensitivity probes,
//! §4.1 initial-simplex evaluation, exhaustive/random search, Appendix-B
//! factorial designs — is a batch of *independent* objective
//! evaluations. This crate supplies the two pieces that exploit that
//! shape without changing any result:
//!
//! * [`Executor`] — a scoped worker pool whose
//!   [`evaluate_batch`](Executor::evaluate_batch) preserves input order:
//!   slot `i` of the output is exactly `eval(&configs[i])`, so for a
//!   pure evaluation function the parallel result is bit-identical to
//!   the sequential one regardless of the job count.
//! * [`TaskPool`] — the complementary long-lived shape: a fixed set of
//!   workers draining one FIFO of submit-and-forget jobs, used by the
//!   daemon's event-driven reactor to keep slow request handling off
//!   its event loop.
//! * [`MemoCache`] — a sharded exact-config memo cache keyed on the
//!   discrete parameter values, with a capacity bound (FIFO eviction per
//!   shard) and hit/miss accounting. The discrete space revisits
//!   configurations constantly (projection collapses nearby continuous
//!   proposals onto the same grid point); the cache answers those
//!   repeats without paying for a measurement.
//!
//! Both are instrumented through the process-global [`harmony_obs`]
//! metrics registry (the `harmony_exec_*` rows of [`obs`]); call
//! [`obs::preregister`] at daemon start so the series are visible in a
//! `Stats` exposition before the first batch runs.
//!
//! # Caching vs. noisy objectives
//!
//! Memoization changes semantics for *noisy* objectives: a cached
//! configuration always answers with its first measured value instead
//! of a fresh sample. That is exactly what the paper's experience reuse
//! wants inside one tuning session (the kernel should not chase noise
//! on a configuration it already paid for), but it silently defeats
//! repeat-averaging defences — so the sensitivity tool's noise floor is
//! always measured uncached, and callers that need fresh samples per
//! repeat should pass no cache.
//!
//! ```
//! use harmony_exec::{Executor, MemoCache};
//! use harmony_space::Configuration;
//!
//! let configs: Vec<Configuration> = (0..64)
//!     .map(|i| Configuration::new(vec![i, i % 7]))
//!     .collect();
//! let eval = |c: &Configuration| (c.get(0) * c.get(1)) as f64;
//!
//! let sequential = Executor::new(1).evaluate_batch(&configs, &eval);
//! let parallel = Executor::new(4).evaluate_batch(&configs, &eval);
//! assert_eq!(sequential, parallel, "order-preserving and bit-identical");
//!
//! let cache = MemoCache::new(1024);
//! let first = Executor::new(4).evaluate_batch_cached(&configs, &cache, &eval);
//! let again = Executor::new(4).evaluate_batch_cached(&configs, &cache, &eval);
//! assert_eq!(first, again);
//! assert_eq!(cache.hits(), 64, "second pass answered from the cache");
//! ```

pub mod cache;
pub mod executor;
pub mod obs;
pub mod pool;

pub use cache::MemoCache;
pub use executor::Executor;
pub use pool::TaskPool;
