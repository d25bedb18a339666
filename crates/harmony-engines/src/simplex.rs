//! The existing discrete Nelder-Mead kernel, ported behind
//! [`SearchEngine`].
//!
//! The port is a thin delegation to [`TuningSession`] — the engine owns
//! a session and forwards every trait method — so its trajectory is
//! bit-identical to [`Tuner::run`] by construction (and the integration
//! suite pins that equality, so the port can never silently drift).

use crate::{EngineError, SearchEngine};
use harmony::history::RunHistory;
use harmony::kernel::SimplexOptions;
use harmony::tuner::{TrainingMode, Tuner, TuningOptions, TuningSession};
use harmony_space::{Configuration, ParameterSpace};

/// The discrete simplex kernel as a [`SearchEngine`].
#[derive(Debug, Clone)]
pub struct SimplexEngine {
    options: TuningOptions,
    simplex: SimplexOptions,
    /// How [`warm_start`](SearchEngine::warm_start) trains on a prior run.
    training: TrainingMode,
    session: TuningSession,
}

impl SimplexEngine {
    /// Cold-start engine with default simplex coefficients; a later
    /// warm start trains in `training` mode (§4.2).
    pub fn new(space: ParameterSpace, options: TuningOptions, training: TrainingMode) -> Self {
        Self::with_simplex_options(space, options, SimplexOptions::default(), training)
    }

    /// Cold-start engine with custom reflection/expansion/contraction/
    /// shrink coefficients (the engine's tunable hyperparameters).
    pub fn with_simplex_options(
        space: ParameterSpace,
        options: TuningOptions,
        simplex: SimplexOptions,
        training: TrainingMode,
    ) -> Self {
        let session = Tuner::new(space, options.clone()).session_with_options(simplex);
        SimplexEngine {
            options,
            simplex,
            training,
            session,
        }
    }
}

impl SearchEngine for SimplexEngine {
    fn name(&self) -> &'static str {
        "simplex"
    }

    fn space(&self) -> &ParameterSpace {
        self.session.space()
    }

    fn next_config(&mut self) -> Option<Configuration> {
        self.session.next_config()
    }

    fn observe(&mut self, performance: f64) -> Result<(), EngineError> {
        self.session.observe(performance).map_err(EngineError::from)
    }

    fn next_batch(&mut self) -> Vec<Configuration> {
        self.session.next_batch()
    }

    fn observe_batch(&mut self, performances: &[f64]) -> Result<usize, EngineError> {
        self.session
            .observe_batch(performances)
            .map_err(EngineError::from)
    }

    fn is_done(&self) -> bool {
        self.session.is_done()
    }

    fn converged(&self) -> bool {
        self.session.converged()
    }

    fn iterations(&self) -> usize {
        self.session.iterations()
    }

    fn best(&self) -> Option<(Configuration, f64)> {
        self.session.best().map(|(c, p)| (c.clone(), p))
    }

    /// Rebuild the session trained on the prior run in the mode given at
    /// construction. Discards any live measurements already observed,
    /// so call before the first proposal.
    ///
    /// The trained kernel starts from the history's diverse seeds with
    /// *default* coefficients: seeding computes kernel state eagerly,
    /// before custom coefficients could take effect, so a warm start
    /// deliberately does not combine with hyper-tuned coefficients.
    fn warm_start(&mut self, history: &RunHistory) {
        let tuner = Tuner::new(self.session.space().clone(), self.options.clone());
        self.session = if history.records.is_empty() {
            tuner.session_with_options(self.simplex)
        } else {
            tuner.session_trained(history, self.training)
        };
    }

    fn training_iterations(&self) -> usize {
        self.session.training_iterations()
    }
}
