#![warn(missing_docs)]

//! Pluggable search engines for the harmony workspace.
//!
//! The paper treats the discrete Nelder-Mead simplex as *the* search
//! strategy and layers prior-run information around it. The ask-tell
//! trait every strategy implements, [`SearchEngine`], lives in
//! [`harmony::engine`] with the loops that drive it ([`drive`],
//! [`drive_parallel`]); the paper's simplex session,
//! [`TuningSession`], implements it there. This crate adds the other
//! engines behind the same trait:
//!
//! * [`DivideDivergeEngine`] — a BestConfig-style sampler: divide the
//!   space, sample one point per subrange, recursively bound the search
//!   around the incumbent, diverge when progress stalls;
//! * [`TunefulEngine`] — a Tuneful-style online tuner that keeps an
//!   incremental sensitivity estimate from everything observed so far
//!   and shrinks the active parameter set as significance resolves;
//! * [`registry`] — engines by name (`simplex` builds a
//!   [`TuningSession`]), each with a hyperparameter space;
//! * [`tournament`] — a meta-tuning harness racing engines (and their
//!   hyperparameters) across `harmony-websim` workload mixes.
//!
//! [`SearchEngine`]: harmony::engine::SearchEngine
//! [`drive`]: harmony::engine::drive
//! [`drive_parallel`]: harmony::engine::drive_parallel
//! [`TuningSession`]: harmony::tuner::TuningSession
//!
//! # Quickstart
//!
//! ```
//! use harmony::engine::drive;
//! use harmony_engines::registry;
//! use harmony_space::{Configuration, ParamDef, ParameterSpace};
//! use std::convert::Infallible;
//!
//! let space = ParameterSpace::builder()
//!     .param(ParamDef::int("x", 0, 100, 50, 1))
//!     .build()
//!     .unwrap();
//! let spec = registry::lookup("divide-diverge").unwrap();
//! let mut engine = spec.build(space, 60, 7);
//! // The measurement is fallible: the first error would stop the run.
//! let outcome = drive(engine.as_mut(), |cfg: &Configuration| {
//!     Ok::<_, Infallible>(-((cfg.get(0) - 72).pow(2)) as f64)
//! });
//! assert!(outcome.unwrap().best_performance > -30.0);
//! ```

pub mod divide;
pub mod obs;
pub mod registry;
mod rng;
pub mod tournament;
pub mod tuneful;

pub use divide::{DivideDivergeEngine, DivideDivergeOptions};
pub use registry::{EngineSpec, UnknownEngineError, ENGINE_NAMES};
pub use tournament::{render_leaderboard, run_tournament, RaceResult, TournamentOptions};
pub use tuneful::{TunefulEngine, TunefulOptions};
