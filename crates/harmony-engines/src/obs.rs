//! The engine layer's metric table: one [`harmony_obs::metrics!`] row
//! per handle. The per-engine proposal/evaluation counters and the
//! convergence histogram belong to the driver loops, in
//! [`harmony::obs`].

harmony_obs::metrics! {
    pub(crate) fn tournament_races_total: Counter = "harmony_engine_tournament_races_total",
        "Engine-vs-workload races completed by the tournament harness";
}
