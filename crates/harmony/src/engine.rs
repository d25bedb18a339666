//! The ask-tell search-engine trait, and the loops that drive any
//! engine to completion.
//!
//! The paper treats the discrete Nelder-Mead simplex as *the* search
//! strategy; [`SearchEngine`] lifts the strategy behind one interface so
//! the parallel [`Executor`], warm starting from an experience database
//! and the CLI work with any engine. The simplex session itself,
//! [`TuningSession`](crate::tuner::TuningSession), implements it in
//! [`tuner`](crate::tuner), next to its private state, so the kernel
//! needs no wrapper to be an engine; the other engines live in
//! `harmony-engines`.

use crate::history::RunHistory;
use crate::report::TraceEntry;
use crate::tuner::SessionError;
use harmony_exec::{Executor, MemoCache};
use harmony_space::{Configuration, ParameterSpace};

/// An ask-tell search engine over a discrete [`ParameterSpace`],
/// maximizing.
///
/// 1. **Ask** — [`next_config`](Self::next_config) proposes the next
///    configuration to measure, or `None` once the engine is done. The
///    proposal is *idempotent*: asking again without an intervening
///    observation returns the same configuration.
/// 2. **Tell** — [`observe`](Self::observe) reports the measured
///    performance of the outstanding proposal.
/// 3. Repeat until [`is_done`](Self::is_done): either the engine
///    [`converged`](Self::converged) or its measurement budget ran out.
///
/// Batching: [`next_batch`](Self::next_batch) returns every proposal
/// whose configuration is already decided (so the measurements can run
/// on an [`Executor`] in parallel), and
/// [`observe_batch`](Self::observe_batch) replays the results *in batch
/// order* through the sequential observation path — convergence is
/// checked after every single measurement, surplus results are
/// discarded, and the trajectory is bit-identical to one-at-a-time
/// stepping at any job count.
pub trait SearchEngine {
    /// The engine's registry name.
    fn name(&self) -> &'static str;

    /// The space being searched.
    fn space(&self) -> &ParameterSpace;

    /// The next configuration to measure, or `None` once the engine is
    /// done. Idempotent until the proposal is observed.
    fn next_config(&mut self) -> Option<Configuration>;

    /// Report the measured performance of the outstanding proposal.
    fn observe(&mut self, performance: f64) -> Result<(), SessionError>;

    /// Every proposal whose configuration is already decided, capped at
    /// the remaining budget. Empty once the engine is done. The default
    /// degenerates to the single outstanding proposal.
    fn next_batch(&mut self) -> Vec<Configuration> {
        match self.next_config() {
            Some(cfg) => vec![cfg],
            None => Vec::new(),
        }
    }

    /// Report measurements for a batch from
    /// [`next_batch`](Self::next_batch), in batch order. Stops as soon
    /// as the engine finishes mid-batch; surplus measurements are
    /// discarded. Returns how many measurements were consumed.
    fn observe_batch(&mut self, performances: &[f64]) -> Result<usize, SessionError> {
        let mut used = 0;
        for &performance in performances {
            if self.is_done() || self.next_config().is_none() {
                break;
            }
            self.observe(performance)?;
            used += 1;
        }
        Ok(used)
    }

    /// Whether the engine has ended (no further proposals).
    fn is_done(&self) -> bool;

    /// Whether the engine's own stopping criteria (rather than the
    /// budget) ended the search.
    fn converged(&self) -> bool;

    /// Measurements observed so far.
    fn iterations(&self) -> usize;

    /// Best observation so far.
    fn best(&self) -> Option<(Configuration, f64)>;

    /// Seed the engine from a prior run (§4.2 warm start). Must be
    /// called before the first proposal; how the history is used is
    /// engine-specific (seeded simplex, pre-bounded region, pre-resolved
    /// sensitivity).
    fn warm_start(&mut self, history: &RunHistory);

    /// Virtual iterations the warm start spent training before the live
    /// stage. Engines that fold the prior run in without a virtual
    /// search report none.
    fn training_iterations(&self) -> usize {
        0
    }
}

/// Result of driving an engine to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutcome {
    /// Registry name of the engine that produced this outcome.
    pub engine: String,
    /// Every exploration, in measurement order.
    pub trace: Vec<TraceEntry>,
    /// Best configuration measured.
    pub best_configuration: Configuration,
    /// Its performance.
    pub best_performance: f64,
    /// Whether the engine's stopping criteria (rather than the budget)
    /// ended the search.
    pub converged: bool,
}

impl EngineOutcome {
    /// Convert the trace into a [`RunHistory`] for the experience
    /// database.
    pub fn to_history(&self, label: impl Into<String>, characteristics: Vec<f64>) -> RunHistory {
        let mut run = RunHistory::new(label, characteristics);
        for t in &self.trace {
            run.push(&t.config, t.performance);
        }
        run
    }
}

fn finish(engine: &dyn SearchEngine, trace: Vec<TraceEntry>) -> EngineOutcome {
    let (best_configuration, best_performance) = engine
        .best()
        .unwrap_or_else(|| (engine.space().default_configuration(), f64::NEG_INFINITY));
    if engine.converged() {
        crate::obs::engine_converged_iterations().observe(trace.len() as f64);
    }
    EngineOutcome {
        engine: engine.name().to_string(),
        trace,
        best_configuration,
        best_performance,
        converged: engine.converged(),
    }
}

/// Drive an engine to completion against an in-process evaluation
/// function, one measurement at a time.
pub fn drive<F>(engine: &mut dyn SearchEngine, mut eval: F) -> EngineOutcome
where
    F: FnMut(&Configuration) -> f64,
{
    let metrics = crate::obs::engine_metrics(engine.name());
    let mut trace = Vec::new();
    while let Some(config) = engine.next_config() {
        metrics.proposals.inc();
        let performance = eval(&config);
        engine
            .observe(performance)
            .expect("a proposal is outstanding");
        metrics.evaluations.inc();
        trace.push(TraceEntry {
            iteration: trace.len(),
            config,
            performance,
        });
    }
    finish(engine, trace)
}

/// [`drive`] with batchable phases measured through `executor` and,
/// when a `cache` is given, every measurement consulted against it
/// first.
///
/// Without a cache the outcome is identical to [`drive`] at any job
/// count: batches preserve input order and observation replays the
/// sequential loop exactly.
pub fn drive_parallel<F>(
    engine: &mut dyn SearchEngine,
    eval: &F,
    executor: &Executor,
    cache: Option<&MemoCache>,
) -> EngineOutcome
where
    F: Fn(&Configuration) -> f64 + Sync,
{
    let metrics = crate::obs::engine_metrics(engine.name());
    let mut trace = Vec::new();
    loop {
        let batch = engine.next_batch();
        if batch.is_empty() {
            break;
        }
        metrics.proposals.add(batch.len() as u64);
        let performances = match cache {
            Some(c) => executor.evaluate_batch_cached(&batch, c, eval),
            None => executor.evaluate_batch(&batch, eval),
        };
        let used = engine
            .observe_batch(&performances)
            .expect("batch proposals are outstanding");
        metrics.evaluations.add(used as u64);
        for (config, &performance) in batch.into_iter().zip(&performances).take(used) {
            trace.push(TraceEntry {
                iteration: trace.len(),
                config,
                performance,
            });
        }
    }
    finish(engine, trace)
}
