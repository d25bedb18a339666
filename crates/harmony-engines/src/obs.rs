//! Metric handles for the engine layer, registered lazily in the
//! process-global [`harmony_obs`] registry.
//!
//! Metric names exported here:
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `harmony_engine_tournament_races_total` | counter | engine-vs-workload races completed |
//!
//! The per-engine proposal/evaluation counters and the convergence
//! histogram belong to the driver loops in [`harmony::engine`].

use harmony_obs::metrics::{global, Counter};
use std::sync::{Arc, OnceLock};

pub(crate) fn tournament_races_total() -> &'static Arc<Counter> {
    static H: OnceLock<Arc<Counter>> = OnceLock::new();
    H.get_or_init(|| {
        global().counter(
            "harmony_engine_tournament_races_total",
            "Engine-vs-workload races completed by the tournament harness",
        )
    })
}

/// Register every `harmony_engine_*` series with the global registry so
/// a metrics exposition shows them (at zero) before the first engine
/// runs: one driver label set per registered engine, and the tournament
/// counter. Call once at daemon start, next to the other subsystems'
/// preregistration.
pub fn preregister() {
    harmony::preregister_engine_metrics(&crate::registry::ENGINE_NAMES);
    tournament_races_total();
}
