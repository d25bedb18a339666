//! Engines by name, each with a hyperparameter space.
//!
//! The registry is the single place that knows how to turn a name
//! (`tune --engine <name>`) into a running [`SearchEngine`], and how to
//! expose that engine's own knobs as a discrete [`ParameterSpace`] so
//! the [`tournament`](crate::tournament) can meta-tune them with the
//! same machinery that tunes ordinary systems. Continuous coefficients
//! travel as scaled integer percentages (`alpha_pct = 100` ⇒ α = 1.0).

use crate::divide::{DivideDivergeEngine, DivideDivergeOptions};
use crate::tuneful::{TunefulEngine, TunefulOptions};
use harmony::engine::SearchEngine;
pub use harmony::engine::ENGINE_NAMES;
use harmony::kernel::SimplexOptions;
use harmony::tuner::{TrainingMode, Tuner, TuningOptions};
use harmony_space::{Configuration, ParamDef, ParameterSpace};

/// The seed every driver uses when nothing overrides it. Remote engine
/// sessions depend on this being one shared constant: the daemon builds
/// (and, after a failover, rebuilds) an engine with it, and the CLI's
/// local `tune --engine` uses it too, which is what makes a remote
/// trajectory reproducible against a local one.
pub const DEFAULT_SEED: u64 = 42;

/// Virtual replay budget the registry's simplex engine spends on a prior
/// run's records when warm-started (the CLI's training mode, `--original`
/// included).
pub const WARM_REPLAY_BUDGET: usize = 10;

/// `lookup` was asked for a name nobody registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownEngineError {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownEngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown engine {:?}; available engines: {}",
            self.name,
            ENGINE_NAMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownEngineError {}

/// A buildable engine from the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSpec {
    name: &'static str,
}

/// Resolve an engine name.
pub fn lookup(name: &str) -> Result<EngineSpec, UnknownEngineError> {
    ENGINE_NAMES
        .iter()
        .find(|&&n| n == name)
        .map(|&n| EngineSpec { name: n })
        .ok_or_else(|| UnknownEngineError {
            name: name.to_string(),
        })
}

impl EngineSpec {
    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The engine's hyperparameters as a discrete space the tournament
    /// can search. Percentages scale by 1/100.
    pub fn hyper_space(&self) -> ParameterSpace {
        let builder = match self.name {
            "simplex" => ParameterSpace::builder()
                .param(ParamDef::int("alpha_pct", 50, 150, 100, 5))
                .param(ParamDef::int("gamma_pct", 150, 300, 200, 10))
                .param(ParamDef::int("rho_pct", 30, 70, 50, 5))
                .param(ParamDef::int("sigma_pct", 30, 70, 50, 5)),
            "divide-diverge" => ParameterSpace::builder()
                .param(ParamDef::int("samples", 4, 16, 8, 1))
                .param(ParamDef::int("shrink_pct", 30, 80, 50, 5))
                .param(ParamDef::int("patience", 1, 4, 2, 1)),
            "tuneful" => ParameterSpace::builder()
                .param(ParamDef::int("probes", 2, 6, 3, 1))
                .param(ParamDef::int("shrink_pct", 30, 80, 50, 5))
                .param(ParamDef::int("drop_pct", 5, 40, 20, 5)),
            _ => unreachable!("specs only come from lookup"),
        };
        builder.build().expect("static hyper spaces are valid")
    }

    /// Build the engine with default hyperparameters. The box is
    /// `Send` so a daemon can park an engine-driven session across
    /// threads.
    pub fn build(
        &self,
        space: ParameterSpace,
        budget: usize,
        seed: u64,
    ) -> Box<dyn SearchEngine + Send> {
        let defaults = self.hyper_space().default_configuration();
        self.build_tuned(space, budget, seed, &defaults)
    }

    /// Build the engine with hyperparameters from a configuration in
    /// [`hyper_space`](Self::hyper_space) order.
    pub fn build_tuned(
        &self,
        space: ParameterSpace,
        budget: usize,
        seed: u64,
        hyper: &Configuration,
    ) -> Box<dyn SearchEngine + Send> {
        let pct = |i: usize| hyper.get(i) as f64 / 100.0;
        match self.name {
            "simplex" => {
                let simplex = SimplexOptions {
                    alpha: pct(0),
                    gamma: pct(1),
                    rho: pct(2),
                    sigma: pct(3),
                };
                let options = TuningOptions::improved().with_max_iterations(budget);
                Box::new(
                    Tuner::new(space, options)
                        .session_with(simplex, TrainingMode::Replay(WARM_REPLAY_BUDGET)),
                )
            }
            "divide-diverge" => {
                let opts = DivideDivergeOptions {
                    samples: hyper.get(0) as usize,
                    shrink: pct(1),
                    patience: hyper.get(2) as usize,
                };
                Box::new(DivideDivergeEngine::with_options(space, budget, seed, opts))
            }
            "tuneful" => {
                let opts = TunefulOptions {
                    probes: hyper.get(0) as usize,
                    shrink: pct(1),
                    drop_fraction: pct(2),
                };
                Box::new(TunefulEngine::with_options(space, budget, opts))
            }
            _ => unreachable!("specs only come from lookup"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_resolves_every_registered_name() {
        for name in ENGINE_NAMES {
            let spec = lookup(name).unwrap();
            assert_eq!(spec.name(), name);
            assert!(spec.hyper_space().len() >= 3);
        }
    }

    #[test]
    fn unknown_name_lists_the_alternatives() {
        let err = lookup("annealing").unwrap_err();
        let msg = err.to_string();
        for name in ENGINE_NAMES {
            assert!(msg.contains(name), "{msg}");
        }
    }

    #[test]
    fn built_engines_report_their_registry_name() {
        let space = harmony_websim::webservice_space();
        for name in ENGINE_NAMES {
            let engine = lookup(name).unwrap().build(space.clone(), 10, 1);
            assert_eq!(engine.name(), name);
        }
    }
}
