//! The tuning kernel's metric table: one [`harmony_obs::metrics!`] row
//! per handle, registered lazily in the process-global registry. The
//! hot paths (one counter bump per live iteration, one histogram
//! observation per classify/save) never touch the registry lock after
//! first use.

use crate::engine::ENGINE_NAMES;
use harmony_obs::metrics::LATENCY_SECONDS;

/// Buckets for whole-session wall time: 100µs up to ~half an hour.
const SESSION_SECONDS: &[f64] = &[
    1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0,
];

/// Iterations-to-converge buckets: short warm-started runs up to long
/// cold searches.
const CONVERGED_ITERATIONS: &[f64] = &[5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0];

harmony_obs::metrics! {
    pub(crate) fn sessions_finished_total: Counter = "harmony_sessions_finished_total",
        "Tuning runs driven to the end, or daemon sessions closed by SessionEnd.";
    pub(crate) fn session_wall_seconds: Histogram(SESSION_SECONDS) = "harmony_session_wall_seconds",
        "Wall time of a finished tuning run; a daemon session's runs from when this process built it.";
    pub(crate) fn training_iterations_total: Counter = "harmony_training_iterations_total",
        "Virtual iterations answered from prior experience during training stages.";
    pub(crate) fn db_classify_seconds: Histogram(LATENCY_SECONDS) = "harmony_db_classify_seconds",
        "Experience-db least-squares classification latency.";
    pub(crate) fn db_save_seconds: Histogram(LATENCY_SECONDS) = "harmony_db_save_seconds",
        "Experience-db persistence latency (serialize + atomic rename).";
    pub(crate) fn db_saves_total: Counter = "harmony_db_saves_total",
        "Successful experience-db saves.";
    pub(crate) fn wal_appends_total: Counter = "harmony_db_wal_appends_total",
        "Runs appended to the experience-db write-ahead journal.";
    pub(crate) fn wal_flush_seconds: Histogram(LATENCY_SECONDS) = "harmony_db_wal_flush_seconds",
        "Write-ahead journal append+flush latency, per run.";
    pub(crate) fn db_compactions_total: Counter = "harmony_db_compactions_total",
        "Journal compactions into a full experience-db snapshot.";
    pub(crate) fn sensitivity_reports_total: Counter = "harmony_sensitivity_reports_total",
        "Sensitivity reports computed (live sweeps and from-history estimates).";
    pub(crate) fn engine_converged_iterations: Histogram(CONVERGED_ITERATIONS)
        = "harmony_engine_converged_iterations",
        "Trace length of engine runs that met their convergence criteria";
    pub fn engine_proposals_total(engine in ENGINE_NAMES): Counter = "harmony_engine_proposals_total",
        "Configurations proposed by a search engine";
    pub fn engine_evaluations_total(engine in ENGINE_NAMES): Counter
        = "harmony_engine_evaluations_total",
        "Measurements consumed by a search engine";
    pub(crate) fn simplex_reflect_total: Counter = "harmony_simplex_ops_total" { op = "reflect" },
        "Simplex kernel state transitions, by operation.";
    pub(crate) fn simplex_expand_total: Counter = "harmony_simplex_ops_total" { op = "expand" },
        "Simplex kernel state transitions, by operation.";
    pub(crate) fn simplex_contract_total: Counter = "harmony_simplex_ops_total" { op = "contract" },
        "Simplex kernel state transitions, by operation.";
    pub(crate) fn simplex_shrink_total: Counter = "harmony_simplex_ops_total" { op = "shrink" },
        "Simplex kernel state transitions, by operation.";
    pub(crate) fn simplex_refresh_total: Counter = "harmony_simplex_ops_total" { op = "refresh" },
        "Simplex kernel state transitions, by operation.";
}
