//! Tuning sessions: the normal one-stage flow and the §4.2 two-stage
//! (training + live) flow.

use crate::engine::{drive, SearchEngine};
use crate::estimate::Estimator;
use crate::history::RunHistory;
use crate::kernel::{InitStrategy, SimplexKernel, SimplexOptions};
use crate::objective::Objective;
use crate::report::{TraceEntry, TuningReport};
use harmony_obs::event::{event, Level};
use harmony_space::{Configuration, ParameterSpace};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;

/// Normalized point spread below which a trained simplex counts as
/// collapsed and is re-expanded before live tuning.
const RESTART_SPREAD: f64 = 0.05;

/// How historical experience is injected before live tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainingMode {
    /// No training stage (the original Active Harmony behaviour).
    None,
    /// Seed the initial simplex directly with the best recorded
    /// configurations ("the system should use previous data layout as the
    /// starting point for tuning").
    SeedSimplex,
    /// Replay: run the kernel for up to this many *virtual* iterations,
    /// answering its requests with triangulation estimates from the
    /// historical records instead of live measurements (§4.3). Falls back
    /// to seeding when estimation is impossible.
    Replay(usize),
}

/// Session options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningOptions {
    /// Live measurement budget.
    pub max_iterations: usize,
    /// Initial simplex strategy (§4.1).
    pub init: InitStrategy,
    /// Stop once the simplex's relative value spread falls below this
    /// (and at least `min_iterations` live measurements were spent).
    pub value_eps: f64,
    /// Stop once every vertex projects within this normalized distance of
    /// the best vertex.
    pub point_eps: f64,
    /// Never stop before this many live iterations.
    pub min_iterations: usize,
}

impl TuningOptions {
    /// The original Active Harmony configuration: extreme-corner initial
    /// exploration.
    pub fn original() -> Self {
        TuningOptions {
            max_iterations: 200,
            init: InitStrategy::ExtremeCorners,
            value_eps: 5e-3,
            point_eps: 0.02,
            min_iterations: 10,
        }
    }

    /// The paper's improved configuration: evenly spread initial simplex
    /// (§4.1).
    pub fn improved() -> Self {
        TuningOptions {
            init: InitStrategy::EvenSpread,
            ..Self::original()
        }
    }

    /// Builder-style max iterations.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }
}

impl Default for TuningOptions {
    fn default() -> Self {
        Self::improved()
    }
}

/// Result of driving a search engine to completion ([`drive`],
/// [`drive_parallel`](crate::engine::drive_parallel)).
#[derive(Debug, Clone, PartialEq)]
pub struct TuningOutcome {
    /// Registry name of the engine that produced this outcome.
    pub engine: &'static str,
    /// Every live exploration, in order.
    pub trace: Vec<TraceEntry>,
    /// Best configuration measured live.
    pub best_configuration: Configuration,
    /// Its performance.
    pub best_performance: f64,
    /// Metrics over the trace.
    pub report: TuningReport,
    /// Whether the engine's stopping criteria (rather than the budget)
    /// ended the search.
    pub converged: bool,
    /// Virtual (estimated) iterations spent in the training stage.
    pub training_iterations: usize,
}

impl TuningOutcome {
    /// Convert the live trace into a [`RunHistory`] for the experience
    /// database.
    pub fn to_history(&self, label: impl Into<String>, characteristics: Vec<f64>) -> RunHistory {
        let mut run = RunHistory::new(label, characteristics);
        for t in &self.trace {
            run.push(&t.config, t.performance);
        }
        run
    }
}

/// Stepping a [`TuningSession`], or any other [`SearchEngine`], out of
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// [`observe`](SearchEngine::observe) was called with no outstanding
    /// configuration to attach the measurement to.
    NoPendingConfiguration,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoPendingConfiguration => {
                write!(
                    f,
                    "observe called before next_config proposed a configuration"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// An incremental (ask–tell) tuning session.
///
/// [`Tuner::run`] drives the whole measurement loop itself; a session
/// exposes the same loop one step at a time, for callers that cannot hand
/// over control — a network daemon answering `Fetch`/`Report` messages,
/// or any measurement harness living outside the process. It is also the
/// registry's `simplex` [`SearchEngine`]: the daemon, the CLI and the
/// engine drivers step it through that trait, batches included.
///
/// ```
/// use harmony::objective::FnObjective;
/// use harmony::prelude::*;
/// use harmony_space::{ParamDef, ParameterSpace};
///
/// let space = ParameterSpace::builder()
///     .param(ParamDef::int("x", 0, 50, 25, 1))
///     .build()
///     .unwrap();
/// let mut session = Tuner::new(space, TuningOptions::improved()).session();
/// while let Some(cfg) = session.next_config() {
///     session.observe(-((cfg.get(0) - 30).pow(2)) as f64).unwrap();
/// }
/// assert!(session.best().unwrap().1 > -5.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuningSession {
    space: ParameterSpace,
    options: TuningOptions,
    kernel: SimplexKernel,
    trace: Vec<TraceEntry>,
    live_best: Option<(Configuration, f64)>,
    pending: Option<Configuration>,
    converged: bool,
    training_iterations: usize,
    /// How [`warm_start`](SearchEngine::warm_start) trains on a prior
    /// run.
    training: TrainingMode,
}

impl TuningSession {
    /// The next configuration to measure, or `None` once the session is
    /// over (budget spent or converged).
    ///
    /// Idempotent until the proposal is answered: asking again without an
    /// intervening [`observe`](Self::observe) returns the same
    /// configuration, so a retried `Fetch` cannot burn budget.
    pub fn next_config(&mut self) -> Option<Configuration> {
        if let Some(cfg) = &self.pending {
            return Some(cfg.clone());
        }
        if self.is_done() {
            return None;
        }
        let cfg = self.kernel.next_config();
        self.pending = Some(cfg.clone());
        Some(cfg)
    }

    /// Report the measured performance of the outstanding configuration.
    pub fn observe(&mut self, performance: f64) -> Result<(), SessionError> {
        let config = self
            .pending
            .take()
            .ok_or(SessionError::NoPendingConfiguration)?;
        {
            // Observation-only: the span measures the kernel step, it
            // never feeds back into it.
            let _span = harmony_obs::trace::child(harmony_obs::trace::stage::SIMPLEX_STEP, "");
            self.kernel.observe(performance);
        }
        match &self.live_best {
            Some((_, b)) if *b >= performance => {}
            _ => self.live_best = Some((config.clone(), performance)),
        }
        let iteration = self.trace.len();
        event(Level::Debug, "tune.iteration")
            .u64("iteration", iteration as u64)
            .f64("performance", performance)
            .f64(
                "best",
                self.live_best
                    .as_ref()
                    .map(|(_, b)| *b)
                    .unwrap_or(performance),
            )
            .emit();
        self.trace.push(TraceEntry {
            iteration,
            config,
            performance,
        });
        if self.kernel.initialized()
            && self.trace.len() >= self.options.min_iterations
            && self.kernel.value_spread() < self.options.value_eps
            && self.kernel.point_spread() < self.options.point_eps
        {
            self.converged = true;
        }
        Ok(())
    }

    /// Whether the session has ended (no further configurations will be
    /// proposed).
    pub fn is_done(&self) -> bool {
        self.converged || self.trace.len() >= self.options.max_iterations
    }

    /// Whether the spread criteria (rather than the budget) have stopped
    /// the session. `false` while the session is still running.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Live measurements spent so far.
    pub fn iterations(&self) -> usize {
        self.trace.len()
    }

    /// Best live measurement so far.
    pub fn best(&self) -> Option<(&Configuration, f64)> {
        self.live_best.as_ref().map(|(c, p)| (c, *p))
    }

    /// Live explorations so far, in measurement order.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// The space under tuning.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// Virtual iterations spent training before the live stage.
    pub fn training_iterations(&self) -> usize {
        self.training_iterations
    }
}

/// The paper's simplex session as an engine. Proposals and observations
/// go through the inherent methods, so stepping a session by hand walks
/// exactly the trajectory [`Tuner::run`] drives through the trait.
impl SearchEngine for TuningSession {
    fn name(&self) -> &'static str {
        "simplex"
    }

    fn space(&self) -> &ParameterSpace {
        &self.space
    }

    fn next_config(&mut self) -> Option<Configuration> {
        TuningSession::next_config(self)
    }

    fn observe(&mut self, performance: f64) -> Result<(), SessionError> {
        TuningSession::observe(self, performance)
    }

    /// The whole remaining initial simplex during the init phase, the
    /// remaining vertices during a post-training refresh, and otherwise
    /// the single outstanding configuration.
    fn next_batch(&mut self) -> Vec<Configuration> {
        if let Some(cfg) = &self.pending {
            return vec![cfg.clone()];
        }
        if self.is_done() {
            return Vec::new();
        }
        let remaining = self.options.max_iterations - self.trace.len();
        let mut batch = self.kernel.batchable_configs();
        batch.truncate(remaining.max(1));
        batch
    }

    fn is_done(&self) -> bool {
        TuningSession::is_done(self)
    }

    fn converged(&self) -> bool {
        self.converged
    }

    fn iterations(&self) -> usize {
        self.trace.len()
    }

    fn best(&self) -> Option<(Configuration, f64)> {
        self.live_best.clone()
    }

    /// Rebuild the session trained on the prior run in the session's
    /// training mode. Discards any live measurements already observed,
    /// so call before the first proposal. An empty history changes
    /// nothing: the session stays cold, with its own coefficients.
    ///
    /// The trained kernel starts from the history's diverse seeds with
    /// *default* coefficients: seeding computes kernel state eagerly,
    /// before custom coefficients could take effect, so a warm start
    /// deliberately does not combine with hyper-tuned coefficients.
    fn warm_start(&mut self, history: &RunHistory) {
        if !history.records.is_empty() {
            let tuner = Tuner::new(self.space.clone(), self.options.clone());
            *self = tuner.session_trained(history, self.training);
        }
    }

    fn training_iterations(&self) -> usize {
        self.training_iterations
    }
}

/// A tuning session driver.
#[derive(Debug, Clone)]
pub struct Tuner {
    space: ParameterSpace,
    options: TuningOptions,
}

impl Tuner {
    /// Create a session driver.
    pub fn new(space: ParameterSpace, options: TuningOptions) -> Self {
        Tuner { space, options }
    }

    /// The space under tuning.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// Options in force.
    pub fn options(&self) -> &TuningOptions {
        &self.options
    }

    /// One-stage tuning: measure everything live.
    pub fn run(&self, objective: &mut dyn Objective) -> TuningOutcome {
        let Ok(outcome) = drive(&mut self.session(), |c| {
            Ok::<_, Infallible>(objective.measure(c))
        });
        outcome
    }

    /// Two-stage tuning with prior experience (§4.2): a training stage
    /// that costs no live measurements, then the live stage.
    ///
    /// # Examples
    ///
    /// ```
    /// use harmony::objective::FnObjective;
    /// use harmony::prelude::*;
    /// use harmony::tuner::TrainingMode;
    /// use harmony_space::{ParamDef, ParameterSpace};
    ///
    /// let space = ParameterSpace::builder()
    ///     .param(ParamDef::int("x", 0, 50, 25, 1))
    ///     .build()
    ///     .unwrap();
    /// let f = |cfg: &Configuration| -((cfg.get(0) - 30).pow(2)) as f64;
    ///
    /// // A prior run left records behind …
    /// let mut history = RunHistory::new("prior", vec![1.0]);
    /// for x in [10, 20, 28, 33, 40] {
    ///     let cfg = Configuration::new(vec![x]);
    ///     history.push(&cfg, f(&cfg));
    /// }
    ///
    /// // … which the next session replays as free virtual iterations.
    /// let tuner = Tuner::new(space, TuningOptions::improved().with_max_iterations(30));
    /// let mut objective = FnObjective::new(f);
    /// let out = tuner.run_trained(&mut objective, &history, TrainingMode::Replay(8));
    /// assert!(out.best_performance > -5.0);
    /// ```
    pub fn run_trained(
        &self,
        objective: &mut dyn Objective,
        history: &RunHistory,
        mode: TrainingMode,
    ) -> TuningOutcome {
        let mut session = self.session_trained(history, mode);
        let Ok(outcome) = drive(&mut session, |c| Ok::<_, Infallible>(objective.measure(c)));
        outcome
    }

    /// Step-at-a-time flavour of [`run`](Self::run): the caller measures.
    pub fn session(&self) -> TuningSession {
        self.session_with(SimplexOptions::default(), TrainingMode::None)
    }

    /// A cold [`session`](Self::session) with custom simplex
    /// coefficients, which a later
    /// [`warm_start`](SearchEngine::warm_start) trains in `training`
    /// mode (§4.2).
    ///
    /// Coefficients only take effect if installed before the kernel
    /// computes its first reflection, so they are applied to a cold
    /// kernel here rather than exposed as a mutator. Callers that tune
    /// the kernel's hyperparameters (the engine tournament) go through
    /// this entry point.
    pub fn session_with(&self, simplex: SimplexOptions, training: TrainingMode) -> TuningSession {
        let kernel =
            SimplexKernel::new(self.space.clone(), self.options.init).with_options(simplex);
        self.start(kernel, training, 0)
    }

    /// Step-at-a-time flavour of [`run_trained`](Self::run_trained).
    ///
    /// The training stage costs no live measurements, so it runs entirely
    /// here; the returned session starts at the live stage.
    pub fn session_trained(&self, history: &RunHistory, mode: TrainingMode) -> TuningSession {
        let (kernel, trained) = self.trained_kernel(history, mode);
        self.start(kernel, mode, trained)
    }

    /// A session at the live stage from `kernel`, after
    /// `training_iterations` virtual ones.
    fn start(
        &self,
        kernel: SimplexKernel,
        training: TrainingMode,
        training_iterations: usize,
    ) -> TuningSession {
        crate::obs::training_iterations_total().add(training_iterations as u64);
        TuningSession {
            space: self.space.clone(),
            options: self.options.clone(),
            kernel,
            trace: Vec::new(),
            live_best: None,
            pending: None,
            converged: false,
            training_iterations,
            training,
        }
    }

    /// Build the starting kernel for a trained session, returning it with
    /// the count of virtual training iterations spent. Falls back to the
    /// cold-start kernel when the history cannot seed one.
    fn trained_kernel(&self, history: &RunHistory, mode: TrainingMode) -> (SimplexKernel, usize) {
        let cold = || SimplexKernel::new(self.space.clone(), self.options.init);
        match mode {
            TrainingMode::None => (cold(), 0),
            TrainingMode::SeedSimplex => {
                let seeds = self.diverse_seeds(history);
                if seeds.is_empty() {
                    return (cold(), 0);
                }
                let mut kernel = SimplexKernel::with_seeded_simplex(self.space.clone(), seeds);
                // Seeded values came from a (possibly different) prior
                // workload: restore geometry if the seeds were clustered,
                // then re-measure everything live before searching.
                if kernel.initialized() && kernel.point_spread() < RESTART_SPREAD {
                    kernel.expand_around_best(0.25);
                }
                kernel.refresh();
                (kernel, 0)
            }
            TrainingMode::Replay(budget) => {
                if history.records.is_empty() {
                    return (cold(), 0);
                }
                // Start from the recorded experience as the simplex, then
                // let the kernel explore *virtually*: requests are answered
                // with triangulation estimates.
                let seeds = self.diverse_seeds(history);
                let mut kernel = SimplexKernel::with_seeded_simplex(self.space.clone(), seeds);
                let mut trained = 0usize;
                // One index over the records answers every virtual
                // iteration; rebuilding it per request would re-sort the
                // whole history each time.
                let estimator = Estimator::new(&self.space, &history.records);
                for _ in 0..budget {
                    let cfg = kernel.next_config();
                    match estimator.estimate(&cfg) {
                        Some(est) => {
                            kernel.observe(est);
                            trained += 1;
                        }
                        None => break,
                    }
                }
                // Trained values are estimates from prior experience; the
                // virtual search may also have collapsed the simplex onto
                // the *old* optimum. Restore geometry, then re-measure the
                // vertices live so stale optimism cannot pin the search to
                // the prior workload's optimum.
                if kernel.initialized() && kernel.point_spread() < RESTART_SPREAD {
                    kernel.expand_around_best(0.25);
                }
                kernel.refresh();
                (kernel, trained)
            }
        }
    }

    /// Pick up to `n+1` seed vertices from a prior run: the best record
    /// first, then greedy farthest-point selection among the
    /// better-performing half. Post-convergence traces cluster at the old
    /// optimum; without the diversity requirement the seeded simplex would
    /// start (nearly) collapsed.
    fn diverse_seeds(&self, history: &RunHistory) -> Vec<(Configuration, f64)> {
        let records = &history.records;
        if records.is_empty() {
            return Vec::new();
        }
        let mut order: Vec<usize> = (0..records.len()).collect();
        order.sort_by(|&a, &b| records[b].performance.total_cmp(&records[a].performance));
        // Candidates: the better half (at least n+1 when available).
        let keep = (records.len() / 2)
            .max(self.space.len() + 1)
            .min(records.len());
        let candidates = &order[..keep];

        let mut chosen: Vec<usize> = vec![candidates[0]]; // the best record
        while chosen.len() < self.space.len() + 1 {
            let next = candidates
                .iter()
                .copied()
                .filter(|i| !chosen.contains(i))
                .max_by(|&a, &b| {
                    let da = self.min_dist_to_chosen(records, &chosen, a);
                    let db = self.min_dist_to_chosen(records, &chosen, b);
                    da.total_cmp(&db)
                });
            match next {
                // Stop once only duplicates remain — the kernel fills the
                // rest with axis offsets around the best seed.
                Some(i) if self.min_dist_to_chosen(records, &chosen, i) > 1e-9 => chosen.push(i),
                _ => break,
            }
        }
        chosen
            .into_iter()
            .map(|i| (records[i].configuration(), records[i].performance))
            .collect()
    }

    fn min_dist_to_chosen(
        &self,
        records: &[crate::history::TuningRecord],
        chosen: &[usize],
        candidate: usize,
    ) -> f64 {
        let c = records[candidate].configuration();
        chosen
            .iter()
            .map(|&i| {
                self.space
                    .normalized_distance(&records[i].configuration(), &c)
            })
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;
    use harmony_space::ParamDef;

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

    /// What a run's outcome records about the walk: trace, best,
    /// convergence and training.
    type Walk = (Vec<TraceEntry>, Option<(Configuration, f64)>, bool, usize);

    /// The walk a hand-stepped session took.
    fn session_walk(s: &TuningSession) -> Walk {
        let best = s.best().map(|(c, p)| (c.clone(), p));
        (
            s.trace().to_vec(),
            best,
            s.converged(),
            s.training_iterations(),
        )
    }

    /// The walk a driven run took.
    fn outcome_walk(o: &TuningOutcome) -> Walk {
        let best = Some((o.best_configuration.clone(), o.best_performance));
        (o.trace.clone(), best, o.converged, o.training_iterations)
    }

    #[test]
    fn serialized_session_resumes_bit_identically() {
        // Interrupt a session at various depths — including with a
        // proposal outstanding — and check the revived copy finishes the
        // run with exactly the same trajectory and outcome.
        for cut in [0usize, 1, 4, 17] {
            let opts = TuningOptions::improved().with_max_iterations(60);
            let mut live = Tuner::new(space2(), opts).session();
            for _ in 0..cut {
                let cfg = live.next_config().unwrap();
                live.observe(paraboloid(&cfg)).unwrap();
            }
            // Leave a proposal pending, as a mid-`Fetch` disconnect would.
            let pending = live.next_config();
            let json = serde_json::to_string(&live).unwrap();
            let mut revived: TuningSession = serde_json::from_str(&json).unwrap();
            assert_eq!(revived.next_config(), pending, "cut at {cut}");
            assert_eq!(revived.iterations(), live.iterations());
            let finish = |mut s: TuningSession| {
                drive(&mut s, |c| Ok::<_, Infallible>(paraboloid(c))).unwrap()
            };
            let a = finish(live);
            let b = finish(revived);
            assert_eq!(a.trace, b.trace, "cut at {cut}");
            assert_eq!(a.best_configuration, b.best_configuration);
            assert_eq!(a.best_performance, b.best_performance);
            assert_eq!(a.converged, b.converged);
        }
    }

    #[test]
    fn plain_run_finds_the_optimum_region() {
        let tuner = Tuner::new(space2(), TuningOptions::improved());
        let mut obj = FnObjective::new(paraboloid);
        let out = tuner.run(&mut obj);
        assert!(out.best_performance > 980.0, "{}", out.best_performance);
        assert_eq!(out.trace.len(), out.report.iterations);
        assert_eq!(out.training_iterations, 0);
        // The recorded best matches the trace maximum.
        let trace_max = out
            .trace
            .iter()
            .map(|t| t.performance)
            .fold(f64::MIN, f64::max);
        assert_eq!(out.best_performance, trace_max);
    }

    #[test]
    fn improved_init_avoids_extreme_first_iterations() {
        let tuner = Tuner::new(space2(), TuningOptions::improved());
        let mut obj = FnObjective::new(paraboloid);
        let out = tuner.run(&mut obj);
        // The first three explorations (the initial simplex) must be
        // interior points under EvenSpread.
        for t in &out.trace[..3] {
            for j in 0..2 {
                let v = t.config.get(j);
                assert!(
                    v > 0 && v < 100,
                    "initial exploration at extreme: {}",
                    t.config
                );
            }
        }
    }

    #[test]
    fn original_init_explores_extremes_first() {
        let tuner = Tuner::new(space2(), TuningOptions::original());
        let mut obj = FnObjective::new(paraboloid);
        let out = tuner.run(&mut obj);
        assert_eq!(out.trace[0].config.values(), &[0, 0]);
    }

    #[test]
    fn converges_before_budget_on_easy_problems() {
        let opts = TuningOptions::improved().with_max_iterations(500);
        let tuner = Tuner::new(space2(), opts);
        let mut obj = FnObjective::new(paraboloid);
        let out = tuner.run(&mut obj);
        assert!(out.converged, "should converge before 500 iterations");
        assert!(out.trace.len() < 500);
    }

    #[test]
    fn seeded_training_converges_faster_than_cold() {
        let space = space2();
        // History recorded near the optimum.
        let mut history = RunHistory::new("prior", vec![0.5]);
        for (x, y) in [(38, 68), (44, 72), (40, 66), (36, 74), (42, 69)] {
            let cfg = Configuration::new(vec![x, y]);
            history.push(&cfg, paraboloid(&cfg));
        }
        let opts = TuningOptions::improved();
        let tuner = Tuner::new(space, opts);

        let mut cold_obj = FnObjective::new(paraboloid);
        let cold = tuner.run(&mut cold_obj);
        let mut warm_obj = FnObjective::new(paraboloid);
        let warm = tuner.run_trained(&mut warm_obj, &history, TrainingMode::SeedSimplex);

        assert!(warm.report.convergence_time <= cold.report.convergence_time);
        assert!(
            warm.report.worst_performance >= cold.report.worst_performance,
            "warm start should avoid the deep initial dips: warm {} vs cold {}",
            warm.report.worst_performance,
            cold.report.worst_performance
        );
        assert!(warm.best_performance > 990.0);
    }

    #[test]
    fn replay_training_spends_virtual_iterations() {
        let space = space2();
        let mut history = RunHistory::new("prior", vec![0.5]);
        // A modest grid of records around mid-space so estimation works.
        for x in [20, 40, 60, 80] {
            for y in [30, 50, 70, 90] {
                let cfg = Configuration::new(vec![x, y]);
                history.push(&cfg, paraboloid(&cfg));
            }
        }
        let tuner = Tuner::new(space, TuningOptions::improved());
        let mut obj = FnObjective::new(paraboloid);
        let out = tuner.run_trained(&mut obj, &history, TrainingMode::Replay(15));
        assert!(out.training_iterations > 0, "replay must train virtually");
        assert!(out.best_performance > 980.0);
    }

    #[test]
    fn empty_history_falls_back_to_cold_run() {
        let tuner = Tuner::new(space2(), TuningOptions::improved());
        let empty = RunHistory::new("empty", vec![]);
        let mut obj = FnObjective::new(paraboloid);
        let out = tuner.run_trained(&mut obj, &empty, TrainingMode::Replay(10));
        assert_eq!(out.training_iterations, 0);
        assert!(out.best_performance > 950.0);
    }

    #[test]
    fn outcome_to_history_preserves_trace() {
        let tuner = Tuner::new(space2(), TuningOptions::improved().with_max_iterations(20));
        let mut obj = FnObjective::new(paraboloid);
        let out = tuner.run(&mut obj);
        let run = out.to_history("label", vec![0.3, 0.7]);
        assert_eq!(run.records.len(), out.trace.len());
        assert_eq!(run.best().unwrap().performance, out.best_performance);
        assert_eq!(run.characteristics, vec![0.3, 0.7]);
    }

    #[test]
    fn session_matches_run_exactly() {
        let tuner = Tuner::new(space2(), TuningOptions::improved());
        let mut obj = FnObjective::new(paraboloid);
        let run_out = tuner.run(&mut obj);

        let mut session = tuner.session();
        while let Some(cfg) = session.next_config() {
            session.observe(paraboloid(&cfg)).unwrap();
        }
        assert_eq!(
            session_walk(&session),
            outcome_walk(&run_out),
            "session stepping must replay run() exactly"
        );
    }

    #[test]
    fn session_next_config_is_idempotent_until_observed() {
        let tuner = Tuner::new(space2(), TuningOptions::improved());
        let mut session = tuner.session();
        let a = session.next_config().unwrap();
        let b = session.next_config().unwrap();
        assert_eq!(a, b, "repeated fetch must not advance the kernel");
        session.observe(paraboloid(&a)).unwrap();
        let c = session.next_config().unwrap();
        assert_ne!(a, c, "after observe the kernel proposes the next vertex");
        assert_eq!(session.iterations(), 1);
    }

    #[test]
    fn session_observe_without_fetch_is_an_error() {
        let tuner = Tuner::new(space2(), TuningOptions::improved());
        let mut session = tuner.session();
        assert_eq!(
            session.observe(1.0),
            Err(SessionError::NoPendingConfiguration)
        );
        let cfg = session.next_config().unwrap();
        assert!(session.observe(paraboloid(&cfg)).is_ok());
        assert_eq!(
            session.observe(1.0),
            Err(SessionError::NoPendingConfiguration)
        );
    }

    #[test]
    fn trained_session_matches_run_trained() {
        let space = space2();
        let mut history = RunHistory::new("prior", vec![0.5]);
        for x in [20, 40, 60, 80] {
            for y in [30, 50, 70, 90] {
                let cfg = Configuration::new(vec![x, y]);
                history.push(&cfg, paraboloid(&cfg));
            }
        }
        let tuner = Tuner::new(space, TuningOptions::improved());
        let mut obj = FnObjective::new(paraboloid);
        let run_out = tuner.run_trained(&mut obj, &history, TrainingMode::Replay(15));

        let mut session = tuner.session_trained(&history, TrainingMode::Replay(15));
        assert!(session.training_iterations() > 0);
        while let Some(cfg) = session.next_config() {
            session.observe(paraboloid(&cfg)).unwrap();
        }
        assert_eq!(session_walk(&session), outcome_walk(&run_out));
    }

    #[test]
    fn abandoned_session_reports_partial_trace() {
        let tuner = Tuner::new(space2(), TuningOptions::improved());
        let mut session = tuner.session();
        for _ in 0..3 {
            let cfg = session.next_config().unwrap();
            session.observe(paraboloid(&cfg)).unwrap();
        }
        let trace_max = session
            .trace()
            .iter()
            .map(|t| t.performance)
            .fold(f64::MIN, f64::max);
        assert_eq!(session.best().unwrap().1, trace_max);
        assert_eq!(session.trace().len(), 3);
        assert!(!session.converged());
    }

    #[test]
    fn next_batch_respects_pending_and_budget() {
        let tuner = Tuner::new(space2(), TuningOptions::improved().with_max_iterations(2));
        let mut session = tuner.session();
        let batch = session.next_batch();
        assert_eq!(batch.len(), 2, "3 init vertices capped at budget 2");
        let cfg = session.next_config().unwrap();
        assert_eq!(session.next_batch(), vec![cfg.clone()], "pending wins");
        session.observe(paraboloid(&cfg)).unwrap();
        let used = session.observe_batch(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(used, 1, "budget ends the session mid-batch");
        assert!(session.is_done());
        assert!(session.next_batch().is_empty());
    }

    #[test]
    fn budget_is_respected() {
        let tuner = Tuner::new(space2(), TuningOptions::improved().with_max_iterations(7));
        let mut obj = FnObjective::new(paraboloid);
        let out = tuner.run(&mut obj);
        assert!(out.trace.len() <= 7);
        assert_eq!(obj.count(), out.trace.len() as u64);
    }
}
