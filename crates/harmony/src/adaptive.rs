//! Continuous adaptation: re-tune when the workload drifts.
//!
//! The paper's motivation (§1): "when the environment for the systems or
//! the applications changes rapidly, there is frequently no single
//! configuration good for all situations". This module closes that loop:
//! each monitoring period the data analyzer's characteristic probe is
//! compared against the characteristics the current configuration was
//! tuned for; if the workload has drifted beyond a threshold, a fresh
//! tuning session runs (warm-started from the experience database as
//! usual) and the system moves to the new configuration.

use crate::objective::Objective;
use crate::server::{HarmonyServer, ServerOptions, SessionOutcome};
use harmony_linalg::stats::euclidean;
use harmony_space::{Configuration, ParameterSpace};

/// Adaptation policy.
#[derive(Debug, Clone)]
pub struct AdaptiveOptions {
    /// Characteristic-space distance beyond which the workload counts as
    /// changed and a re-tune is triggered.
    pub drift_threshold: f64,
    /// Underlying server options (training mode, analyzer, focus).
    pub server: ServerOptions,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            drift_threshold: 0.10,
            server: ServerOptions::default(),
        }
    }
}

/// What the controller decided for one monitoring period.
#[derive(Debug, Clone)]
pub enum Decision {
    /// Workload unchanged (distance below threshold): keep the current
    /// configuration.
    Steady {
        /// Distance between the observed and the tuned-for
        /// characteristics.
        drift: f64,
    },
    /// Workload changed (or first period): a tuning session ran.
    Retuned {
        /// Drift that triggered the session (`None` on the first period).
        drift: Option<f64>,
        /// The session's outcome (boxed: it dwarfs the `Steady` variant).
        outcome: Box<SessionOutcome>,
    },
}

/// The adaptation controller: wraps a [`HarmonyServer`] with drift
/// detection and a notion of the currently deployed configuration.
#[derive(Debug, Clone)]
pub struct AdaptiveTuner {
    server: HarmonyServer,
    options: AdaptiveOptions,
    tuned_for: Option<Vec<f64>>,
    deployed: Option<Configuration>,
    sessions: u64,
}

impl AdaptiveTuner {
    /// Controller over a space.
    pub fn new(space: ParameterSpace, options: AdaptiveOptions) -> Self {
        let server = HarmonyServer::new(space, options.server.clone());
        AdaptiveTuner {
            server,
            options,
            tuned_for: None,
            deployed: None,
            sessions: 0,
        }
    }

    /// The wrapped server (e.g. to preload experience or sensitivity).
    pub fn server(&self) -> &HarmonyServer {
        &self.server
    }

    /// Mutable access to the wrapped server.
    pub fn server_mut(&mut self) -> &mut HarmonyServer {
        &mut self.server
    }

    /// The configuration currently deployed, if any session has run.
    pub fn deployed(&self) -> Option<&Configuration> {
        self.deployed.as_ref()
    }

    /// Number of tuning sessions run so far.
    pub fn sessions(&self) -> u64 {
        self.sessions
    }

    /// One monitoring period: compare the probe's characteristics against
    /// what the deployed configuration was tuned for; re-tune on drift.
    pub fn observe(
        &mut self,
        objective: &mut dyn Objective,
        label: &str,
        characteristics: &[f64],
    ) -> Decision {
        let drift = self
            .tuned_for
            .as_ref()
            .filter(|t| t.len() == characteristics.len())
            .map(|t| euclidean(t, characteristics));
        match drift {
            Some(d) if d <= self.options.drift_threshold => Decision::Steady { drift: d },
            _ => {
                let outcome = self.server.tune_session(objective, label, characteristics);
                self.tuned_for = Some(characteristics.to_vec());
                self.deployed = Some(outcome.tuning.best_configuration.clone());
                self.sessions += 1;
                Decision::Retuned {
                    drift,
                    outcome: Box::new(outcome),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;
    use harmony_space::ParamDef;

    fn space() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::int("x", 0, 40, 20, 1))
            .param(ParamDef::int("y", 0, 40, 20, 1))
            .build()
            .unwrap()
    }

    /// A system whose optimum tracks the first workload characteristic.
    fn objective(w0: f64) -> FnObjective<impl FnMut(&Configuration) -> f64> {
        FnObjective::new(move |cfg: &Configuration| {
            let peak = 5.0 + 30.0 * w0;
            100.0 - (cfg.get(0) as f64 - peak).powi(2) - 0.2 * (cfg.get(1) as f64 - 15.0).powi(2)
        })
    }

    #[test]
    fn first_period_always_tunes() {
        let mut at = AdaptiveTuner::new(space(), AdaptiveOptions::default());
        assert!(at.deployed().is_none());
        let mut obj = objective(0.2);
        let d = at.observe(&mut obj, "w", &[0.2, 0.8]);
        assert!(matches!(d, Decision::Retuned { drift: None, .. }));
        assert_eq!(at.sessions(), 1);
        assert!(at.deployed().is_some());
    }

    #[test]
    fn small_drift_keeps_the_configuration() {
        let mut at = AdaptiveTuner::new(space(), AdaptiveOptions::default());
        let mut obj = objective(0.2);
        let _ = at.observe(&mut obj, "w", &[0.2, 0.8]);
        let deployed = at.deployed().unwrap().clone();
        let d = at.observe(&mut obj, "w", &[0.22, 0.78]);
        match d {
            Decision::Steady { drift } => assert!(drift < 0.10, "drift {drift}"),
            other => panic!("expected steady, got {other:?}"),
        }
        assert_eq!(at.sessions(), 1);
        assert_eq!(at.deployed().unwrap(), &deployed);
    }

    #[test]
    fn large_drift_triggers_a_retune_toward_the_new_optimum() {
        let mut at = AdaptiveTuner::new(space(), AdaptiveOptions::default());
        let mut obj = objective(0.1);
        let _ = at.observe(&mut obj, "w1", &[0.1, 0.9]);
        let old = at.deployed().unwrap().clone();

        // The workload flips: the optimum of x moves from ~8 to ~32.
        let mut obj2 = objective(0.9);
        let d = at.observe(&mut obj2, "w2", &[0.9, 0.1]);
        assert!(matches!(d, Decision::Retuned { drift: Some(_), .. }));
        assert_eq!(at.sessions(), 2);
        let new = at.deployed().unwrap();
        assert_ne!(new, &old, "configuration should move with the workload");
        assert!(
            (new.get(0) - 32).abs() <= 4,
            "new optimum near 32, got {}",
            new.get(0)
        );
    }

    #[test]
    fn retunes_accumulate_experience_in_the_server() {
        let mut at = AdaptiveTuner::new(space(), AdaptiveOptions::default());
        let mut a = objective(0.1);
        let _ = at.observe(&mut a, "w1", &[0.1, 0.9]);
        let mut b = objective(0.9);
        let _ = at.observe(&mut b, "w2", &[0.9, 0.1]);
        assert_eq!(at.server().db().len(), 2);
        // Returning to the first workload trains from its stored run.
        let mut c = objective(0.1);
        let d = at.observe(&mut c, "w1-again", &[0.11, 0.89]);
        match d {
            Decision::Retuned { outcome, .. } => {
                assert_eq!(outcome.trained_from.as_deref(), Some("w1"));
            }
            other => panic!("expected a retune, got {other:?}"),
        }
    }

    #[test]
    fn dimension_change_counts_as_new_workload() {
        let mut at = AdaptiveTuner::new(space(), AdaptiveOptions::default());
        let mut obj = objective(0.5);
        let _ = at.observe(&mut obj, "w", &[0.5, 0.5]);
        // A probe with a different characteristic arity cannot be compared:
        // treat as changed.
        let d = at.observe(&mut obj, "w-wide", &[0.5, 0.3, 0.2]);
        assert!(matches!(d, Decision::Retuned { .. }));
    }
}
