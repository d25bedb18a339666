//! The Harmony server façade: the full §6 workflow in one object.
//!
//! A session against the server runs the loop the paper describes:
//! observe the workload's characteristics → classify them against the
//! experience database → train the kernel from the closest prior run →
//! tune live → store the new experience for next time.

use crate::history::{DataAnalyzer, ExperienceDb, RunHistory};
use crate::objective::Objective;
use crate::sensitivity::{Prioritizer, SensitivityReport, SubspaceFocus};
use crate::tuner::{TrainingMode, Tuner, TuningOptions, TuningOutcome};
use harmony_space::{parse_rsl, Configuration, ParameterSpace, RslError};

/// Server-level options.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Tuning-session options.
    pub tuning: TuningOptions,
    /// How prior experience is injected (§4.2).
    pub training: TrainingMode,
    /// Analyzer (classification mechanism + match gate).
    pub analyzer: DataAnalyzer,
    /// When set, tuning focuses on the `n` most sensitive parameters from
    /// the last prioritization (§3); the rest stay at their defaults.
    pub focus_top_n: Option<usize>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            tuning: TuningOptions::improved(),
            training: TrainingMode::Replay(12),
            analyzer: DataAnalyzer::new(),
            focus_top_n: None,
        }
    }
}

/// Outcome of a server session: the tuning outcome plus what the server
/// decided along the way.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The live tuning result (best configuration is in *full-space*
    /// coordinates even when tuning was focused).
    pub tuning: TuningOutcome,
    /// Label of the prior run used for training, if any.
    pub trained_from: Option<String>,
    /// Parameter indices that were actually tuned.
    pub tuned_indices: Vec<usize>,
}

/// The Active Harmony tuning server.
#[derive(Debug, Clone)]
pub struct HarmonyServer {
    space: ParameterSpace,
    options: ServerOptions,
    db: ExperienceDb,
    sensitivity: Option<SensitivityReport>,
}

impl HarmonyServer {
    /// Server over a parameter space.
    pub fn new(space: ParameterSpace, options: ServerOptions) -> Self {
        HarmonyServer {
            space,
            options,
            db: ExperienceDb::new(),
            sensitivity: None,
        }
    }

    /// Server from a resource-specification-language document (Appendix B).
    pub fn from_rsl(rsl: &str, options: ServerOptions) -> Result<Self, RslError> {
        Ok(Self::new(parse_rsl(rsl)?, options))
    }

    /// The tuning space.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// The experience database.
    pub fn db(&self) -> &ExperienceDb {
        &self.db
    }

    /// Mutable access (e.g. to preload persisted experience).
    pub fn db_mut(&mut self) -> &mut ExperienceDb {
        &mut self.db
    }

    /// Last sensitivity report, if prioritization has run.
    pub fn sensitivity(&self) -> Option<&SensitivityReport> {
        self.sensitivity.as_ref()
    }

    /// Run the parameter prioritizing tool and remember its ranking
    /// ("done once per new workload … amortized over many runs", §3).
    pub fn prioritize(&mut self, objective: &mut dyn Objective) -> &SensitivityReport {
        let report = Prioritizer::new(self.space.clone()).analyze(objective);
        self.sensitivity = Some(report);
        self.sensitivity.as_ref().expect("just set")
    }

    /// Inject an externally computed sensitivity report (e.g. from the
    /// parallel prioritizer).
    pub fn set_sensitivity(&mut self, report: SensitivityReport) {
        self.sensitivity = Some(report);
    }

    /// Run one full tuning session for a workload whose characteristics
    /// were observed as `characteristics` (e.g. the interaction-frequency
    /// distribution from the data analyzer's probe).
    ///
    /// The finished run is recorded in the experience database under
    /// `label`.
    pub fn tune_session(
        &mut self,
        objective: &mut dyn Objective,
        label: &str,
        characteristics: &[f64],
    ) -> SessionOutcome {
        // 1. Classify against prior experience.
        let prior: Option<RunHistory> = self.options.analyzer.select(&self.db, characteristics);
        let trained_from = prior.as_ref().map(|r| r.label.clone());

        // 2. Choose the space: full or focused on the top-n sensitive
        //    parameters.
        let focus: Option<SubspaceFocus> = match (self.options.focus_top_n, &self.sensitivity) {
            (Some(n), Some(report)) => {
                let indices = report.top_n(n);
                Some(SubspaceFocus::new(
                    self.space.clone(),
                    indices,
                    self.space.default_configuration(),
                ))
            }
            _ => None,
        };

        // 3. Tune (two-stage when prior experience exists).
        let outcome = match &focus {
            None => {
                let tuner = Tuner::new(self.space.clone(), self.options.tuning.clone());
                match &prior {
                    Some(history) => tuner.run_trained(objective, history, self.options.training),
                    None => tuner.run(objective),
                }
            }
            Some(focus) => {
                let reduced = focus.reduced_space();
                let tuner = Tuner::new(reduced.clone(), self.options.tuning.clone());
                // Bridge: measure reduced configs by embedding them.
                let mut bridged = BridgedObjective {
                    focus,
                    inner: objective,
                };
                let prior_reduced = prior.as_ref().map(|h| reduce_history(h, focus));
                let mut out = match &prior_reduced {
                    Some(history) => {
                        tuner.run_trained(&mut bridged, history, self.options.training)
                    }
                    None => tuner.run(&mut bridged),
                };
                // Report the outcome in full-space coordinates.
                out.best_configuration = focus.embed(&out.best_configuration);
                for t in &mut out.trace {
                    t.config = focus.embed(&t.config);
                }
                out
            }
        };

        // 4. Record the new experience.
        self.db
            .add_run(outcome.to_history(label, characteristics.to_vec()));

        let tuned_indices = match &focus {
            Some(f) => f.indices().to_vec(),
            None => (0..self.space.len()).collect(),
        };
        SessionOutcome {
            tuning: outcome,
            trained_from,
            tuned_indices,
        }
    }
}

/// Project a full-space history onto a focused subspace (dropping the
/// frozen coordinates; performances carry over unchanged).
fn reduce_history(history: &RunHistory, focus: &SubspaceFocus) -> RunHistory {
    let mut out = RunHistory::new(history.label.clone(), history.characteristics.clone());
    for r in &history.records {
        let reduced: Vec<i64> = focus.indices().iter().map(|&i| r.values[i]).collect();
        out.push(&Configuration::new(reduced), r.performance);
    }
    out
}

/// Adapter measuring reduced configurations through the full objective.
struct BridgedObjective<'a> {
    focus: &'a SubspaceFocus,
    inner: &'a mut dyn Objective,
}

impl Objective for BridgedObjective<'_> {
    fn measure(&mut self, cfg: &Configuration) -> f64 {
        self.inner.measure(&self.focus.embed(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;
    use harmony_space::ParamDef;

    fn space() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::int("big", 0, 40, 20, 1))
            .param(ParamDef::int("small", 0, 40, 20, 1))
            .param(ParamDef::int("dead", 0, 40, 20, 1))
            .build()
            .unwrap()
    }

    fn eval(cfg: &Configuration) -> f64 {
        let a = cfg.get(0) as f64;
        let b = cfg.get(1) as f64;
        500.0 - 2.0 * (a - 31.0).powi(2) - 0.3 * (b - 9.0).powi(2)
    }

    #[test]
    fn cold_session_records_experience() {
        let mut server = HarmonyServer::new(space(), ServerOptions::default());
        let mut obj = FnObjective::new(eval);
        let out = server.tune_session(&mut obj, "w1", &[1.0, 0.0]);
        assert!(out.trained_from.is_none(), "no prior experience yet");
        assert_eq!(server.db().len(), 1);
        assert!(out.tuning.best_performance > 450.0);
        assert_eq!(out.tuned_indices, vec![0, 1, 2]);
    }

    #[test]
    fn second_session_trains_from_the_first() {
        let mut server = HarmonyServer::new(space(), ServerOptions::default());
        let mut obj = FnObjective::new(eval);
        let _ = server.tune_session(&mut obj, "w1", &[1.0, 0.0]);
        let out2 = server.tune_session(&mut obj, "w2", &[0.9, 0.1]);
        assert_eq!(out2.trained_from.as_deref(), Some("w1"));
        assert_eq!(server.db().len(), 2);
        assert!(out2.tuning.training_iterations > 0 || out2.tuning.best_performance > 450.0);
    }

    #[test]
    fn focused_session_tunes_only_top_parameters() {
        let mut server = HarmonyServer::new(
            space(),
            ServerOptions {
                focus_top_n: Some(1),
                ..Default::default()
            },
        );
        let mut obj = FnObjective::new(eval);
        server.prioritize(&mut obj);
        let out = server.tune_session(&mut obj, "w", &[0.5, 0.5]);
        assert_eq!(
            out.tuned_indices,
            vec![0],
            "only the most sensitive parameter is tuned"
        );
        // Frozen parameters stay at their defaults in every explored config.
        for t in &out.tuning.trace {
            assert_eq!(t.config.get(1), 20);
            assert_eq!(t.config.get(2), 20);
        }
        // Still finds the strong parameter's optimum.
        assert!((out.tuning.best_configuration.get(0) - 31).abs() <= 2);
    }

    #[test]
    fn rsl_construction() {
        let server = HarmonyServer::from_rsl(
            "{ harmonyBundle B { int {1 8 1} }}\n{ harmonyBundle C { int {1 9-$B 1} }}",
            ServerOptions::default(),
        )
        .unwrap();
        assert_eq!(server.space().len(), 2);
        assert!(server.space().is_restricted());
    }

    #[test]
    fn sensitivity_is_remembered() {
        let mut server = HarmonyServer::new(space(), ServerOptions::default());
        assert!(server.sensitivity().is_none());
        let mut obj = FnObjective::new(eval);
        server.prioritize(&mut obj);
        let ranked = server.sensitivity().unwrap().ranked();
        assert_eq!(ranked[0].name, "big");
        assert_eq!(ranked[2].name, "dead");
    }
}
