//! Tuneful-style online tuning: probe, rank significance incrementally,
//! drop insignificant parameters, shrink what remains.
//!
//! Every observation the engine ever makes feeds an incremental
//! sensitivity estimate ([`SensitivityReport::from_history`] — the same
//! ΔP/Δv′ machinery as the paper's §3 prioritizer, applied to recorded
//! runs instead of fresh sweeps). After each probing round, parameters
//! whose sensitivity has resolved to insignificant leave the active set
//! pinned at the incumbent's value, and the remaining parameters' value
//! windows shrink around the incumbent. The search ends when the active
//! windows collapse to the parameter grid or probing stops improving.

use harmony::engine::SearchEngine;
use harmony::history::{RunHistory, TuningRecord};
use harmony::sensitivity::SensitivityReport;
use harmony::tuner::SessionError;
use harmony_space::{Configuration, ParameterSpace};

/// Hyperparameters of [`TunefulEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunefulOptions {
    /// Evenly spaced probe values per active parameter per round
    /// (window endpoints included).
    pub probes: usize,
    /// Span factor applied to each active window after a round
    /// (0 < shrink < 1).
    pub shrink: f64,
    /// A parameter whose sensitivity falls at or below this fraction of
    /// the round's maximum leaves the active set.
    pub drop_fraction: f64,
}

impl Default for TunefulOptions {
    fn default() -> Self {
        TunefulOptions {
            probes: 3,
            shrink: 0.5,
            drop_fraction: 0.2,
        }
    }
}

/// Consecutive non-improving rounds that end the search.
const MAX_STALE_ROUNDS: usize = 2;

/// A [`SearchEngine`] doing significance-aware online tuning (after
/// Tuneful).
#[derive(Debug, Clone)]
pub struct TunefulEngine {
    space: ParameterSpace,
    opts: TunefulOptions,
    budget: usize,
    /// Parameters still being tuned, in space order.
    active: Vec<usize>,
    /// Continuous probe window per parameter.
    window: Vec<(f64, f64)>,
    /// Incumbent: inactive parameters stay pinned to its values.
    base: Configuration,
    /// Everything observed so far (plus warm-start records) — the data
    /// behind the incremental sensitivity estimate.
    records: Vec<TuningRecord>,
    round: Vec<Configuration>,
    results: Vec<f64>,
    pending: bool,
    best: Option<(Configuration, f64)>,
    best_at_round_start: f64,
    evals: usize,
    stale: usize,
    converged: bool,
}

impl TunefulEngine {
    /// Cold-start engine with default hyperparameters.
    pub fn new(space: ParameterSpace, budget: usize) -> Self {
        Self::with_options(space, budget, TunefulOptions::default())
    }

    /// Cold-start engine with explicit hyperparameters.
    pub fn with_options(space: ParameterSpace, budget: usize, opts: TunefulOptions) -> Self {
        let active = (0..space.len()).collect();
        let window = (0..space.len())
            .map(|j| {
                let p = space.param(j);
                (p.static_min() as f64, p.static_max() as f64)
            })
            .collect();
        let base = space.default_configuration();
        TunefulEngine {
            space,
            opts,
            budget,
            active,
            window,
            base,
            records: Vec::new(),
            round: Vec::new(),
            results: Vec::new(),
            pending: false,
            best: None,
            best_at_round_start: f64::NEG_INFINITY,
            evals: 0,
            stale: 0,
            converged: false,
        }
    }

    /// Parameters still in the active (tuned) set.
    pub fn active_parameters(&self) -> &[usize] {
        &self.active
    }

    /// Probe every active parameter across its window, one coordinate
    /// at a time off the incumbent. Duplicate projections (typically
    /// the incumbent itself, reproduced by each parameter's interior
    /// probe) are kept once, so the round is deterministic but not
    /// wasteful.
    fn build_round(&mut self) {
        let probes = self.opts.probes.max(2);
        let mut round: Vec<Configuration> = vec![self.space.project(&self.base.to_point())];
        for &j in &self.active {
            let (lo, hi) = self.window[j];
            for i in 0..probes {
                let v = lo + (hi - lo) * i as f64 / (probes - 1) as f64;
                let mut point = self.base.to_point();
                point[j] = v;
                let cfg = self.space.project(&point);
                if !round.contains(&cfg) {
                    round.push(cfg);
                }
            }
        }
        self.round = round;
    }

    fn finish_round(&mut self) {
        for (cfg, &perf) in self.round.iter().zip(&self.results) {
            self.records.push(TuningRecord::new(cfg, perf));
        }
        let (best_cfg, best_value) = self
            .best
            .clone()
            .expect("a finished round has observations");
        self.base = best_cfg;
        if best_value > self.best_at_round_start {
            self.stale = 0;
        } else {
            self.stale += 1;
            if self.stale >= MAX_STALE_ROUNDS {
                self.converged = true;
            }
        }
        self.resolve_significance();
        self.shrink_windows();
        if self.windows_collapsed() {
            self.converged = true;
        }
        self.round.clear();
        self.results.clear();
        self.best_at_round_start = best_value;
    }

    /// One parameter's incremental sensitivity estimate.
    ///
    /// Bucketing the *whole* record set by one parameter's value (what
    /// a naive marginal would do) poisons the estimate: the incumbent's
    /// bucket absorbs every other parameter's bad probes and an inert
    /// parameter ends up looking sensitive. Instead the records are
    /// grouped by the values of all *other* parameters, and the ΔP/Δv′
    /// machinery runs inside the largest group — exactly the
    /// one-at-a-time probes this engine emits, accumulated across
    /// rounds whenever the context repeats. Histories without repeated
    /// contexts (e.g. a simplex trace) resolve to zero, which the
    /// caller treats as "not yet significant either way".
    fn sensitivity_of(&self, j: usize) -> f64 {
        let mut groups: std::collections::BTreeMap<Vec<i64>, Vec<TuningRecord>> =
            std::collections::BTreeMap::new();
        for r in &self.records {
            let mut context = r.values.clone();
            context.remove(j);
            groups.entry(context).or_default().push(r.clone());
        }
        let Some(subset) = groups.into_values().max_by_key(|g| g.len()) else {
            return 0.0;
        };
        if subset.len() < 2 {
            return 0.0;
        }
        SensitivityReport::from_history(&self.space, &subset).entries()[j].sensitivity
    }

    /// Drop active parameters whose sensitivity has resolved to at or
    /// below `drop_fraction` of the current maximum. At least one
    /// parameter always stays active; when nothing is significant yet
    /// (no sensitivity resolved above zero), nothing is dropped.
    fn resolve_significance(&mut self) {
        let sens: Vec<(usize, f64)> = self
            .active
            .iter()
            .map(|&j| (j, self.sensitivity_of(j)))
            .collect();
        let max_s = sens.iter().map(|&(_, s)| s).fold(0.0, f64::max);
        if max_s <= 0.0 {
            return;
        }
        let cutoff = self.opts.drop_fraction * max_s;
        let kept: Vec<usize> = sens
            .iter()
            .filter(|&&(_, s)| s > cutoff)
            .map(|&(j, _)| j)
            .collect();
        if !kept.is_empty() {
            self.active = kept;
        }
    }

    fn shrink_windows(&mut self) {
        for &j in &self.active {
            let (lo, hi) = self.window[j];
            let p = self.space.param(j);
            let (min, max) = (p.static_min() as f64, p.static_max() as f64);
            let span = ((hi - lo) * self.opts.shrink).max(p.step() as f64);
            let c = self.base.get(j) as f64;
            let new_lo = (c - span / 2.0).max(min);
            let new_hi = (c + span / 2.0).min(max);
            self.window[j] = (new_lo, new_hi.max(new_lo));
        }
    }

    fn windows_collapsed(&self) -> bool {
        self.active.iter().all(|&j| {
            let (lo, hi) = self.window[j];
            hi - lo <= self.space.param(j).step() as f64
        })
    }
}

impl SearchEngine for TunefulEngine {
    fn name(&self) -> &'static str {
        "tuneful"
    }

    fn space(&self) -> &ParameterSpace {
        &self.space
    }

    fn next_config(&mut self) -> Option<Configuration> {
        if self.is_done() {
            return None;
        }
        if self.round.is_empty() {
            self.build_round();
        }
        self.pending = true;
        Some(self.round[self.results.len()].clone())
    }

    fn next_batch(&mut self) -> Vec<Configuration> {
        if self.pending {
            return vec![self.round[self.results.len()].clone()];
        }
        if self.is_done() {
            return Vec::new();
        }
        if self.round.is_empty() {
            self.build_round();
        }
        let remaining = self.budget - self.evals;
        self.round[self.results.len()..]
            .iter()
            .take(remaining.max(1))
            .cloned()
            .collect()
    }

    fn observe(&mut self, performance: f64) -> Result<(), SessionError> {
        if !self.pending {
            return Err(SessionError::NoPendingConfiguration);
        }
        self.pending = false;
        let config = self.round[self.results.len()].clone();
        self.results.push(performance);
        self.evals += 1;
        match &self.best {
            Some((_, b)) if *b >= performance => {}
            _ => self.best = Some((config, performance)),
        }
        if self.results.len() == self.round.len() {
            self.finish_round();
        }
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.converged || self.evals >= self.budget
    }

    fn converged(&self) -> bool {
        self.converged
    }

    fn iterations(&self) -> usize {
        self.evals
    }

    fn best(&self) -> Option<(Configuration, f64)> {
        self.best.clone()
    }

    /// Seed the sensitivity estimate with the prior run's records and
    /// start probing around its best configuration: significance that
    /// already resolved in the prior run is resolved *before* the first
    /// live round, and the first windows are already shrunk once. Prior
    /// performances only rank parameters — the incumbent's live value
    /// is re-established by the first round.
    fn warm_start(&mut self, history: &RunHistory) {
        if history.records.is_empty() {
            return;
        }
        self.records.extend(history.records.iter().cloned());
        if let Some(record) = history.best() {
            self.base = record.configuration();
        }
        self.resolve_significance();
        self.shrink_windows();
        self.round.clear();
        self.results.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony::engine::drive;
    use harmony_space::ParamDef;
    use std::convert::Infallible;

    fn space3() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::int("hot", 0, 100, 50, 1))
            .param(ParamDef::int("warm", 0, 100, 50, 1))
            .param(ParamDef::int("dead", 0, 100, 50, 1))
            .build()
            .unwrap()
    }

    /// `dead` has no effect at all; `hot` dominates.
    fn objective(cfg: &Configuration) -> f64 {
        let hot = cfg.get(0) as f64;
        let warm = cfg.get(1) as f64;
        1000.0 - 4.0 * (hot - 30.0).powi(2) - 2.0 * (warm - 60.0).powi(2)
    }

    #[test]
    fn finds_the_optimum_region() {
        let mut e = TunefulEngine::new(space3(), 200);
        let out = drive(&mut e, |c| Ok::<_, Infallible>(objective(c))).unwrap();
        assert!(out.best_performance > 950.0, "{}", out.best_performance);
    }

    #[test]
    fn drops_the_insensitive_parameter() {
        let mut e = TunefulEngine::new(space3(), 200);
        drive(&mut e, |c| Ok::<_, Infallible>(objective(c))).unwrap();
        assert!(
            !e.active_parameters().contains(&2),
            "the inert parameter should leave the active set: {:?}",
            e.active_parameters()
        );
    }

    #[test]
    fn is_deterministic() {
        let run = || {
            let mut e = TunefulEngine::new(space3(), 150);
            drive(&mut e, |c| Ok::<_, Infallible>(objective(c))).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn respects_budget() {
        let mut e = TunefulEngine::new(space3(), 9);
        let out = drive(&mut e, |c| Ok::<_, Infallible>(objective(c))).unwrap();
        assert!(out.trace.len() <= 9);
    }

    #[test]
    fn warm_start_resolves_significance_up_front() {
        let mut prior = TunefulEngine::new(space3(), 120);
        let history = drive(&mut prior, |c| Ok::<_, Infallible>(objective(c)))
            .unwrap()
            .to_history("prior", vec![0.5]);
        let mut warm = TunefulEngine::new(space3(), 120);
        warm.warm_start(&history);
        assert!(
            warm.active_parameters().len() < 3,
            "prior records should already rule parameters out"
        );
    }
}
