//! BestConfig-style divide-and-diverge sampling with recursive
//! bound-and-search.
//!
//! Each *round* divides every parameter's current range into `k`
//! subranges and draws one sample per subrange (a latin-hypercube-style
//! permutation, so the `k` samples jointly cover every subrange of every
//! parameter). After a round the search *bounds*: the region recenters
//! on the incumbent best and shrinks. When bounded rounds stop
//! improving, the search *diverges* — resampling the full space to
//! escape a local plateau. Two consecutive unproductive diverges, or a
//! region collapsed to the parameter grid, end the search.

use crate::rng::Rng;
use harmony::engine::SearchEngine;
use harmony::history::RunHistory;
use harmony::tuner::SessionError;
use harmony_space::{Configuration, ParameterSpace};

/// Hyperparameters of [`DivideDivergeEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DivideDivergeOptions {
    /// Samples per round (`k`): each parameter range splits into this
    /// many subranges, one sample lands in each.
    pub samples: usize,
    /// Span factor applied when bounding the region around the
    /// incumbent (0 < shrink < 1).
    pub shrink: f64,
    /// Consecutive non-improving bounded rounds tolerated before the
    /// search diverges back to the full space.
    pub patience: usize,
}

impl Default for DivideDivergeOptions {
    fn default() -> Self {
        DivideDivergeOptions {
            samples: 8,
            shrink: 0.5,
            patience: 2,
        }
    }
}

/// Consecutive unproductive diverge rounds that end the search.
const MAX_FAILED_DIVERGES: usize = 2;

/// What the current round is sampling from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The full parameter space (initial exploration, or an escape from
    /// a stalled bounded region).
    Diverge,
    /// A shrunken region around the incumbent best.
    Bounded,
}

/// A [`SearchEngine`] doing divide-and-diverge sampling (after
/// BestConfig).
#[derive(Debug, Clone)]
pub struct DivideDivergeEngine {
    space: ParameterSpace,
    opts: DivideDivergeOptions,
    budget: usize,
    rng: Rng,
    /// Continuous sampling bounds per parameter.
    region: Vec<(f64, f64)>,
    mode: Mode,
    /// The current round's configurations, decided before any of them
    /// is observed — so a parallel batch replays the sequential run.
    round: Vec<Configuration>,
    /// Results observed for the current round, in round order.
    results: Vec<f64>,
    pending: bool,
    best: Option<(Configuration, f64)>,
    best_at_round_start: f64,
    evals: usize,
    stale: usize,
    failed_diverges: usize,
    converged: bool,
}

impl DivideDivergeEngine {
    /// Cold-start engine with default hyperparameters.
    pub fn new(space: ParameterSpace, budget: usize, seed: u64) -> Self {
        Self::with_options(space, budget, seed, DivideDivergeOptions::default())
    }

    /// Cold-start engine with explicit hyperparameters.
    pub fn with_options(
        space: ParameterSpace,
        budget: usize,
        seed: u64,
        opts: DivideDivergeOptions,
    ) -> Self {
        let region = full_region(&space);
        DivideDivergeEngine {
            space,
            opts,
            budget,
            rng: Rng::new(seed),
            region,
            mode: Mode::Diverge,
            round: Vec::new(),
            results: Vec::new(),
            pending: false,
            best: None,
            best_at_round_start: f64::NEG_INFINITY,
            evals: 0,
            stale: 0,
            failed_diverges: 0,
            converged: false,
        }
    }

    /// Recenter the region on `center` with every span multiplied by
    /// `factor`, clamped to the space bounds.
    fn bound_around(&mut self, center: &Configuration, factor: f64) {
        for j in 0..self.space.len() {
            let (lo, hi) = self.region[j];
            let p = self.space.param(j);
            let (min, max) = (p.static_min() as f64, p.static_max() as f64);
            let span = ((hi - lo) * factor).max(p.step() as f64);
            let c = center.get(j) as f64;
            let new_lo = (c - span / 2.0).max(min);
            let new_hi = (c + span / 2.0).min(max);
            self.region[j] = (new_lo, new_hi.max(new_lo));
        }
    }

    fn region_collapsed(&self) -> bool {
        (0..self.space.len()).all(|j| {
            let (lo, hi) = self.region[j];
            hi - lo <= self.space.param(j).step() as f64
        })
    }

    /// Draw the next round: one sample per subrange per parameter, with
    /// an independent subrange permutation per parameter.
    fn sample_round(&mut self) {
        let k = self.opts.samples.max(1);
        let n = self.space.len();
        let perms: Vec<Vec<usize>> = (0..n)
            .map(|_| {
                let mut p: Vec<usize> = (0..k).collect();
                self.rng.shuffle(&mut p);
                p
            })
            .collect();
        let mut round = Vec::with_capacity(k);
        for i in 0..k {
            let mut point = Vec::with_capacity(n);
            for (j, perm) in perms.iter().enumerate() {
                let (lo, hi) = self.region[j];
                let width = (hi - lo) / k as f64;
                point.push(lo + width * (perm[i] as f64 + self.rng.f01()));
            }
            round.push(self.space.project(&point));
        }
        self.round = round;
    }

    fn finish_round(&mut self) {
        let (incumbent, best_value) = self
            .best
            .clone()
            .expect("a finished round has observations");
        let improved = best_value > self.best_at_round_start;
        match self.mode {
            Mode::Diverge => {
                if improved {
                    self.failed_diverges = 0;
                } else {
                    self.failed_diverges += 1;
                }
                if self.failed_diverges >= MAX_FAILED_DIVERGES {
                    self.converged = true;
                } else {
                    self.mode = Mode::Bounded;
                    self.stale = 0;
                    self.bound_around(&incumbent, self.opts.shrink);
                }
            }
            Mode::Bounded => {
                if improved {
                    self.stale = 0;
                    self.bound_around(&incumbent, self.opts.shrink);
                } else {
                    self.stale += 1;
                    if self.stale >= self.opts.patience.max(1) {
                        self.mode = Mode::Diverge;
                        self.region = full_region(&self.space);
                        self.stale = 0;
                    } else {
                        self.bound_around(&incumbent, self.opts.shrink);
                    }
                }
                if self.mode == Mode::Bounded && self.region_collapsed() {
                    self.converged = true;
                }
            }
        }
        self.round.clear();
        self.results.clear();
        self.best_at_round_start = best_value;
    }
}

fn full_region(space: &ParameterSpace) -> Vec<(f64, f64)> {
    (0..space.len())
        .map(|j| {
            let p = space.param(j);
            (p.static_min() as f64, p.static_max() as f64)
        })
        .collect()
}

impl SearchEngine for DivideDivergeEngine {
    fn name(&self) -> &'static str {
        "divide-diverge"
    }

    fn space(&self) -> &ParameterSpace {
        &self.space
    }

    fn next_config(&mut self) -> Option<Configuration> {
        if self.is_done() {
            return None;
        }
        if self.round.is_empty() {
            self.sample_round();
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
            self.sample_round();
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

    /// Start bounded around the prior run's best configuration, two
    /// shrink levels in — the prior run already paid for the coarse
    /// divide rounds. The prior *performance* is not trusted (it came
    /// from a possibly different workload); the first bounded round
    /// re-establishes the incumbent from live measurements.
    fn warm_start(&mut self, history: &RunHistory) {
        let Some(record) = history.best() else {
            return;
        };
        let center = record.configuration();
        self.region = full_region(&self.space);
        self.bound_around(&center, self.opts.shrink);
        self.bound_around(&center, self.opts.shrink);
        self.mode = Mode::Bounded;
        self.stale = 0;
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

    fn space2() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::int("x", 0, 100, 50, 1))
            .param(ParamDef::int("y", 0, 100, 50, 1))
            .build()
            .unwrap()
    }

    fn paraboloid(cfg: &Configuration) -> f64 {
        let x = cfg.get(0) as f64;
        let y = cfg.get(1) as f64;
        1000.0 - (x - 40.0).powi(2) - (y - 70.0).powi(2)
    }

    #[test]
    fn finds_the_optimum_region() {
        let mut e = DivideDivergeEngine::new(space2(), 200, 42);
        let out = drive(&mut e, |c| Ok::<_, Infallible>(paraboloid(c))).unwrap();
        assert!(out.best_performance > 950.0, "{}", out.best_performance);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let run = |seed| {
            let mut e = DivideDivergeEngine::new(space2(), 120, seed);
            drive(&mut e, |c| Ok::<_, Infallible>(paraboloid(c))).unwrap()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(
            run(7).trace,
            run(8).trace,
            "different seeds explore differently"
        );
    }

    #[test]
    fn respects_budget() {
        let mut e = DivideDivergeEngine::new(space2(), 13, 1);
        let out = drive(&mut e, |c| Ok::<_, Infallible>(paraboloid(c))).unwrap();
        assert!(out.trace.len() <= 13);
    }

    #[test]
    fn observe_without_ask_is_an_error() {
        let mut e = DivideDivergeEngine::new(space2(), 10, 1);
        assert_eq!(e.observe(1.0), Err(SessionError::NoPendingConfiguration));
        let a = e.next_config().unwrap();
        let b = e.next_config().unwrap();
        assert_eq!(a, b, "proposal is idempotent until observed");
        assert!(e.observe(paraboloid(&a)).is_ok());
    }

    #[test]
    fn warm_start_bounds_the_first_round() {
        let mut history = RunHistory::new("prior", vec![0.5]);
        history.push(&Configuration::new(vec![40, 70]), 1000.0);
        let mut e = DivideDivergeEngine::new(space2(), 100, 3);
        e.warm_start(&history);
        let batch = e.next_batch();
        for cfg in &batch {
            assert!((cfg.get(0) - 40).abs() <= 13, "{cfg}");
            assert!((cfg.get(1) - 70).abs() <= 13, "{cfg}");
        }
    }
}
