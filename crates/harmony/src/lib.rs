#![warn(missing_docs)]

//! Active Harmony: an automated runtime performance tuning system, with
//! the prior-run improvements of Chung & Hollingsworth (SC 2004).
//!
//! The crate implements the paper's full pipeline:
//!
//! * [`kernel`] — the adaptation controller's tuning kernel: a Nelder-Mead
//!   simplex adapted to discrete spaces (§2), with both the original
//!   extreme-corner initial simplex and the improved evenly-spread one
//!   (§4.1);
//! * [`sensitivity`] — the standalone parameter prioritizing tool (§3);
//! * [`history`] — the experience database, workload characterization and
//!   least-squares classification behind the data analyzer (§4.2);
//! * [`estimate`] — triangulation-based performance estimation for
//!   configurations missing from the historical data (§4.3);
//! * [`tuner`] — two-stage tuning sessions (training on history, then live
//!   measurement) and the convergence/oscillation metrics the paper
//!   reports (Tables 1 & 2);
//! * [`engine`] — the ask-tell [`SearchEngine`](engine::SearchEngine)
//!   trait the simplex session implements, and the loops that drive any
//!   engine (sequentially or on an executor) to completion;
//! * [`search`] — comparison algorithms from the related-work discussion
//!   (Powell's direction-set method, random and exhaustive search);
//! * [`server`] — the Harmony server façade that wires all of the above
//!   into the workflow of §6: observe characteristics → classify → train →
//!   tune → record the new experience.
//!
//! # Quickstart
//!
//! ```
//! use harmony::prelude::*;
//! use harmony_space::{ParamDef, ParameterSpace};
//!
//! // A toy system: best at (6, 3), worse toward the edges.
//! let space = ParameterSpace::builder()
//!     .param(ParamDef::int("a", 0, 10, 5, 1))
//!     .param(ParamDef::int("b", 0, 10, 5, 1))
//!     .build()
//!     .unwrap();
//! let mut objective = FnObjective::new(|cfg: &Configuration| {
//!     let (a, b) = (cfg.get(0) as f64, cfg.get(1) as f64);
//!     100.0 - (a - 6.0).powi(2) - 2.0 * (b - 3.0).powi(2)
//! });
//!
//! let outcome = Tuner::new(space, TuningOptions::improved()).run(&mut objective);
//! assert!(outcome.best_performance > 95.0);
//! ```

pub mod adaptive;
pub mod engine;
pub mod estimate;
pub mod factorial;
pub mod history;
pub mod kernel;
pub mod objective;
pub mod obs;
pub mod report;
pub mod search;
pub mod sensitivity;
pub mod server;
pub mod tuner;

/// Convenient re-exports for typical use.
pub mod prelude {
    pub use crate::estimate::{estimate_performance, Estimator};
    pub use crate::history::{DataAnalyzer, ExperienceDb, RunHistory, TuningRecord};
    pub use crate::kernel::{InitStrategy, SimplexKernel};
    pub use crate::objective::{CachedObjective, FnObjective, Objective};
    pub use crate::report::TuningReport;
    pub use crate::sensitivity::{Prioritizer, SensitivityReport};
    pub use crate::server::{HarmonyServer, ServerOptions};
    pub use crate::tuner::{Tuner, TuningOptions, TuningOutcome, TuningSession};
    pub use harmony_exec::{Executor, MemoCache};
    pub use harmony_space::Configuration;
}
