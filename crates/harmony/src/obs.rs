//! Metric handles for the tuning kernel, registered lazily in the
//! process-global [`harmony_obs`] registry.
//!
//! Every accessor caches its `Arc` in a `OnceLock`, so the hot paths
//! (one counter bump per live iteration, one histogram observation per
//! classify/save) never touch the registry lock after first use.
//!
//! Metric names exported here:
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `harmony_session_iterations_total` | counter | live measurements observed across all sessions |
//! | `harmony_sessions_finished_total` | counter | runs driven to the end by `engine::drive`/`drive_parallel` |
//! | `harmony_sessions_converged_total` | counter | finished runs that met their convergence criteria |
//! | `harmony_session_wall_seconds` | histogram | wall time of each finished run |
//! | `harmony_training_iterations_total` | counter | virtual (estimated) training iterations spent |
//! | `harmony_simplex_ops_total{op=…}` | counter | simplex state transitions by kind |
//! | `harmony_db_classify_seconds` | histogram | experience-db classification latency |
//! | `harmony_db_save_seconds` | histogram | experience-db persistence latency |
//! | `harmony_db_saves_total` | counter | successful experience-db saves |
//! | `harmony_sensitivity_reports_total` | counter | sensitivity reports computed from history |
//! | `harmony_engine_proposals_total{engine=…}` | counter | configurations proposed, by engine |
//! | `harmony_engine_evaluations_total{engine=…}` | counter | measurements consumed, by engine |
//! | `harmony_engine_converged_iterations` | histogram | trace length of runs that converged |

use harmony_obs::metrics::{global, Counter, Histogram, LATENCY_SECONDS};
use std::sync::{Arc, OnceLock};

/// Buckets for whole-session wall time: 100µs up to ~half an hour.
const SESSION_SECONDS: &[f64] = &[
    1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0,
];

macro_rules! handle {
    ($fn_name:ident, $kind:ty, $init:expr) => {
        pub(crate) fn $fn_name() -> &'static Arc<$kind> {
            static H: OnceLock<Arc<$kind>> = OnceLock::new();
            H.get_or_init(|| $init)
        }
    };
}

handle!(
    iterations_total,
    Counter,
    global().counter(
        "harmony_session_iterations_total",
        "Live tuning iterations observed across all sessions.",
    )
);

handle!(
    sessions_finished_total,
    Counter,
    global().counter(
        "harmony_sessions_finished_total",
        "Tuning runs driven to the end in-process.",
    )
);

handle!(
    sessions_converged_total,
    Counter,
    global().counter(
        "harmony_sessions_converged_total",
        "Finished runs stopped by their convergence criteria rather than the budget.",
    )
);

handle!(
    session_wall_seconds,
    Histogram,
    global().histogram(
        "harmony_session_wall_seconds",
        "Wall time of a tuning run driven in-process.",
        SESSION_SECONDS,
    )
);

handle!(
    training_iterations_total,
    Counter,
    global().counter(
        "harmony_training_iterations_total",
        "Virtual iterations answered from prior experience during training stages.",
    )
);

handle!(
    db_classify_seconds,
    Histogram,
    global().histogram(
        "harmony_db_classify_seconds",
        "Experience-db least-squares classification latency.",
        LATENCY_SECONDS,
    )
);

handle!(
    db_save_seconds,
    Histogram,
    global().histogram(
        "harmony_db_save_seconds",
        "Experience-db persistence latency (serialize + atomic rename).",
        LATENCY_SECONDS,
    )
);

handle!(
    db_saves_total,
    Counter,
    global().counter("harmony_db_saves_total", "Successful experience-db saves.",)
);

handle!(
    wal_appends_total,
    Counter,
    global().counter(
        "harmony_db_wal_appends_total",
        "Runs appended to the experience-db write-ahead journal.",
    )
);

handle!(
    wal_flush_seconds,
    Histogram,
    global().histogram(
        "harmony_db_wal_flush_seconds",
        "Write-ahead journal append+flush latency, per run.",
        LATENCY_SECONDS,
    )
);

handle!(
    db_compactions_total,
    Counter,
    global().counter(
        "harmony_db_compactions_total",
        "Journal compactions into a full experience-db snapshot.",
    )
);

/// Touch every database-path metric handle so a freshly started process
/// exposes the full `harmony_db_*` set (as zeros) before any run is
/// classified, journaled, or compacted. Called by daemon startup via
/// `harmony-net`'s preregistration.
pub fn preregister_db_metrics() {
    db_classify_seconds();
    db_save_seconds();
    db_saves_total();
    wal_appends_total();
    wal_flush_seconds();
    db_compactions_total();
}

handle!(
    sensitivity_reports_total,
    Counter,
    global().counter(
        "harmony_sensitivity_reports_total",
        "Sensitivity reports computed (live sweeps and from-history estimates).",
    )
);

/// Iterations-to-converge buckets: short warm-started runs up to long
/// cold searches.
const CONVERGED_ITERATIONS: &[f64] = &[5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0];

/// Trace lengths of engine runs that converged: observed by
/// [`crate::engine::drive`]/[`crate::engine::drive_parallel`] and by the daemon at a converged session's
/// end.
pub fn engine_converged_iterations() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        global().histogram(
            "harmony_engine_converged_iterations",
            "Trace length of engine runs that met their convergence criteria",
            CONVERGED_ITERATIONS,
        )
    })
}

/// Per-engine counter handles, bumped by [`crate::engine::drive`] and by
/// the daemon's sessions. The registry deduplicates by (name, labels),
/// so repeated lookups return the same underlying counters.
pub struct EngineMetrics {
    /// Configurations proposed (a repeated ask is not a new proposal).
    pub proposals: Arc<Counter>,
    /// Measurements observed.
    pub evaluations: Arc<Counter>,
}

/// Handles for one engine's labelled series. The lookup takes the
/// registry lock: do it once per session, not per step.
pub fn engine_metrics(engine: &str) -> EngineMetrics {
    EngineMetrics {
        proposals: global().counter_with(
            "harmony_engine_proposals_total",
            "Configurations proposed by a search engine",
            &[("engine", engine)],
        ),
        evaluations: global().counter_with(
            "harmony_engine_evaluations_total",
            "Measurements consumed by a search engine",
            &[("engine", engine)],
        ),
    }
}

/// Register the engine-driver series — one proposal/evaluation label
/// set per name in `engines`, and the convergence histogram — so a
/// metrics exposition shows them (at zero) before the first engine
/// runs.
pub fn preregister_engine_metrics(engines: &[&str]) {
    for name in engines {
        engine_metrics(name);
    }
    engine_converged_iterations();
}

/// Per-operation counters for the simplex state machine.
pub(crate) struct SimplexOps {
    pub reflect: Arc<Counter>,
    pub expand: Arc<Counter>,
    pub contract: Arc<Counter>,
    pub shrink: Arc<Counter>,
    pub refresh: Arc<Counter>,
}

pub(crate) fn simplex_ops() -> &'static SimplexOps {
    static H: OnceLock<SimplexOps> = OnceLock::new();
    H.get_or_init(|| {
        let op = |name: &str| {
            global().counter_with(
                "harmony_simplex_ops_total",
                "Simplex kernel state transitions, by operation.",
                &[("op", name)],
            )
        };
        SimplexOps {
            reflect: op("reflect"),
            expand: op("expand"),
            contract: op("contract"),
            shrink: op("shrink"),
            refresh: op("refresh"),
        }
    })
}
