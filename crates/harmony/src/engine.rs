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
//! `harmony-engines`. [`drive`] and [`drive_parallel`] are the only
//! in-process ask-tell loops: [`Tuner::run`](crate::tuner::Tuner::run),
//! the CLI's local `tune` and the engine tournament all go through them.
//! Every run ends in [`finish`]: theirs, and a daemon session's.

use crate::history::RunHistory;
use crate::report::{analyze_trace, ReportOptions, TraceEntry};
use crate::tuner::{SessionError, TuningOutcome};
use harmony_exec::{Executor, MemoCache};
use harmony_obs::event::{event, Level};
use harmony_space::{Configuration, ParameterSpace};
use std::time::Instant;

/// Every engine's registry name, in registry order. `harmony-engines`
/// builds exactly these, and the `harmony_engine_*` series carry one
/// label set per name.
pub const ENGINE_NAMES: [&str; 3] = ["simplex", "divide-diverge", "tuneful"];

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
    /// The engine's registry name, one of [`ENGINE_NAMES`].
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

/// Close a run: analyze its trace and account for it — the report, the
/// `tune.finish` event and the `harmony_sessions_finished_total`,
/// `harmony_session_wall_seconds` and converged-run series. The one
/// end-of-run path: [`drive`], [`drive_parallel`] and a daemon session's
/// `SessionEnd` all end here. `t0` is when the run began; for a
/// daemon session, when this process built it.
pub fn finish(engine: &dyn SearchEngine, trace: Vec<TraceEntry>, t0: Instant) -> TuningOutcome {
    let (best_configuration, best_performance) = engine
        .best()
        .unwrap_or_else(|| (engine.space().default_configuration(), f64::NEG_INFINITY));
    let converged = engine.converged();
    crate::obs::sessions_finished_total().inc();
    if converged {
        crate::obs::engine_converged_iterations().observe(trace.len() as f64);
    }
    crate::obs::session_wall_seconds().observe(t0.elapsed().as_secs_f64());
    event(Level::Info, "tune.finish")
        .u64("iterations", trace.len() as u64)
        .u64("training_iterations", engine.training_iterations() as u64)
        .f64("best", best_performance)
        .bool("converged", converged)
        .emit();
    TuningOutcome {
        engine: engine.name(),
        report: analyze_trace(&trace, &ReportOptions::default()),
        trace,
        best_configuration,
        best_performance,
        converged,
        training_iterations: engine.training_iterations(),
    }
}

/// Drive an engine to completion against an in-process measurement,
/// one configuration at a time. The first failed measurement stops the
/// run and is returned; it never reaches the engine.
pub fn drive<F, E>(engine: &mut dyn SearchEngine, mut measure: F) -> Result<TuningOutcome, E>
where
    F: FnMut(&Configuration) -> Result<f64, E>,
{
    let started = Instant::now();
    let proposals = crate::obs::engine_proposals_total(engine.name());
    let evaluations = crate::obs::engine_evaluations_total(engine.name());
    let mut trace = Vec::new();
    while let Some(config) = engine.next_config() {
        proposals.inc();
        let performance = measure(&config)?;
        engine
            .observe(performance)
            .expect("a proposal is outstanding");
        evaluations.inc();
        trace.push(TraceEntry {
            iteration: trace.len(),
            config,
            performance,
        });
    }
    Ok(finish(engine, trace, started))
}

/// [`drive`] with batchable phases measured through `executor` and,
/// when a `cache` is given, every measurement consulted against it
/// first.
///
/// Without a cache the outcome is identical to [`drive`] at any job
/// count: batches preserve input order and observation replays the
/// sequential loop exactly. A failed measurement stops the run with the
/// batch's first failure in batch order — the one [`drive`] meets
/// first — and is never cached.
pub fn drive_parallel<F, E>(
    engine: &mut dyn SearchEngine,
    measure: &F,
    executor: &Executor,
    cache: Option<&MemoCache>,
) -> Result<TuningOutcome, E>
where
    F: Fn(&Configuration) -> Result<f64, E> + Sync,
    E: Send,
{
    let started = Instant::now();
    let proposals = crate::obs::engine_proposals_total(engine.name());
    let evaluations = crate::obs::engine_evaluations_total(engine.name());
    let mut trace = Vec::new();
    loop {
        let batch = engine.next_batch();
        if batch.is_empty() {
            break;
        }
        proposals.add(batch.len() as u64);
        let performances = match cache {
            Some(c) => executor.try_evaluate_batch_cached(&batch, c, measure)?,
            None => executor
                .evaluate_batch(&batch, measure)
                .into_iter()
                .collect::<Result<_, E>>()?,
        };
        let used = engine
            .observe_batch(&performances)
            .expect("batch proposals are outstanding");
        evaluations.add(used as u64);
        for (config, &performance) in batch.into_iter().zip(&performances).take(used) {
            trace.push(TraceEntry {
                iteration: trace.len(),
                config,
                performance,
            });
        }
    }
    Ok(finish(engine, trace, started))
}
