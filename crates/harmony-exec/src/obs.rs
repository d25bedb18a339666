//! The evaluation engine's metric table: one [`harmony_obs::metrics!`]
//! row per handle, registered lazily in the process-global registry.

use harmony_obs::metrics::LATENCY_SECONDS;

harmony_obs::metrics! {
    pub(crate) fn batches_total: Counter = "harmony_exec_batches_total",
        "Evaluation batches submitted to an executor.";
    pub(crate) fn evaluations_total: Counter = "harmony_exec_evaluations_total",
        "Configurations submitted for evaluation across all batches.";
    pub(crate) fn batch_seconds: Histogram(LATENCY_SECONDS) = "harmony_exec_batch_seconds",
        "Wall time per evaluate_batch call.";
    pub(crate) fn queue_depth: Gauge = "harmony_exec_queue_depth",
        "Configurations claimed-or-waiting in in-flight batches.";
    pub(crate) fn cache_hits_total: Counter = "harmony_exec_cache_hits_total",
        "Memo-cache lookups answered without a measurement.";
    pub(crate) fn cache_misses_total: Counter = "harmony_exec_cache_misses_total",
        "Memo-cache lookups that required a measurement.";
    pub(crate) fn cache_evictions_total: Counter = "harmony_exec_cache_evictions_total",
        "Memo-cache entries dropped by the capacity bound.";
    pub(crate) fn cache_entries: Gauge = "harmony_exec_cache_entries",
        "Memo-cache entries currently resident across all caches.";
    pub(crate) fn pool_panics_total: Counter = "harmony_exec_pool_panics_total",
        "Task-pool jobs that panicked (caught; the worker survives).";
}
