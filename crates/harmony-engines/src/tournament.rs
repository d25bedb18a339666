//! Meta-tuning tournament: race engines (and their hyperparameters)
//! across websim workload mixes.
//!
//! For every (workload mix, engine) pair the harness scores a field of
//! hyperparameter candidates — the engine's defaults plus seeded-random
//! draws from its hyper space — by running each candidate's engine to
//! completion against the analytic websim model. Candidate scoring is
//! an ordinary batch of independent evaluations, so it runs on the
//! [`Executor`]; results are byte-for-byte reproducible for a fixed
//! seed at any job count (the analytic model is deterministic, the
//! executor preserves batch order, and every random draw comes from
//! explicit seeded state).

use crate::rng::Rng;
use crate::{obs, registry};
use harmony::engine::drive;
use harmony_exec::Executor;
use harmony_space::{Configuration, ParameterSpace};
use harmony_websim::{Fidelity, WebServiceSystem, WorkloadMix};
use std::convert::Infallible;

/// Tournament parameters.
#[derive(Debug, Clone)]
pub struct TournamentOptions {
    /// Measurement budget per engine run.
    pub budget: usize,
    /// Hyperparameter candidates per (mix, engine) race, the engine's
    /// defaults included.
    pub candidates: usize,
    /// Seed for candidate draws and engine randomness.
    pub seed: u64,
    /// Workload mixes to race on.
    pub mixes: Vec<WorkloadMix>,
}

impl Default for TournamentOptions {
    fn default() -> Self {
        TournamentOptions {
            budget: 120,
            candidates: 4,
            seed: 42,
            mixes: vec![
                WorkloadMix::browsing(),
                WorkloadMix::shopping(),
                WorkloadMix::ordering(),
            ],
        }
    }
}

/// One engine's result on one workload mix: the best hyperparameter
/// candidate's full run.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceResult {
    /// Workload mix name.
    pub mix: String,
    /// Engine registry name.
    pub engine: String,
    /// Best WIPS the winning candidate reached.
    pub best_wips: f64,
    /// Measurements the winning candidate spent.
    pub evaluations: usize,
    /// Whether the winning candidate converged before its budget.
    pub converged: bool,
    /// The winning hyperparameters, in hyper-space order.
    pub hyper: Vec<(String, i64)>,
}

/// Stable per-race seed: mixes the tournament seed with the mix and
/// engine indices so every race draws an independent, reproducible
/// stream.
fn race_seed(seed: u64, mix_idx: usize, engine_idx: usize) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul((mix_idx as u64 + 1) * 31 + engine_idx as u64 + 1)
}

/// A uniform draw from the space's discrete grid.
fn random_config(space: &ParameterSpace, rng: &mut Rng) -> Configuration {
    let values = (0..space.len())
        .map(|j| {
            let p = space.param(j);
            let count = (p.static_max() - p.static_min()) / p.step() + 1;
            p.static_min() + rng.below(count as u64) as i64 * p.step()
        })
        .collect();
    Configuration::new(values)
}

/// Run the full tournament: every engine races on every mix, candidate
/// scoring batched through `executor`.
pub fn run_tournament(opts: &TournamentOptions, executor: &Executor) -> Vec<RaceResult> {
    let mut results = Vec::new();
    for (mi, mix) in opts.mixes.iter().enumerate() {
        for (ei, name) in registry::ENGINE_NAMES.iter().enumerate() {
            let spec = registry::lookup(name).expect("registry names resolve");
            let hyper_space = spec.hyper_space();
            let seed = race_seed(opts.seed, mi, ei);
            let mut rng = Rng::new(seed);
            let mut candidates = vec![hyper_space.default_configuration()];
            while candidates.len() < opts.candidates.max(1) {
                candidates.push(random_config(&hyper_space, &mut rng));
            }

            let system = WebServiceSystem::new(mix.clone(), Fidelity::Analytic, 0.0, seed);
            let space = system.space().clone();
            let clean = |cfg: &Configuration| system.evaluate_clean(cfg);
            let race = |hyper: &Configuration| -> f64 {
                let mut engine = spec.build_tuned(space.clone(), opts.budget, seed, hyper);
                let Ok(outcome) = drive(engine.as_mut(), |cfg| Ok::<_, Infallible>(clean(cfg)));
                outcome.best_performance
            };
            let scores = executor.evaluate_batch(&candidates, &race);
            let mut winner = 0;
            for (i, s) in scores.iter().enumerate() {
                if *s > scores[winner] {
                    winner = i;
                }
            }

            // Replay the winner for its full outcome; the analytic model
            // is deterministic, so this reproduces the scoring run.
            let mut engine =
                spec.build_tuned(space.clone(), opts.budget, seed, &candidates[winner]);
            let Ok(outcome) = drive(engine.as_mut(), |cfg| Ok::<_, Infallible>(clean(cfg)));
            obs::tournament_races_total().inc();
            let hyper = (0..hyper_space.len())
                .map(|j| {
                    (
                        hyper_space.param(j).name().to_string(),
                        candidates[winner].get(j),
                    )
                })
                .collect();
            results.push(RaceResult {
                mix: mix.name().to_string(),
                engine: name.to_string(),
                best_wips: outcome.best_performance,
                evaluations: outcome.trace.len(),
                converged: outcome.converged,
                hyper,
            });
        }
    }
    results
}

/// Render the deterministic leaderboard: per mix (tournament order),
/// engines ranked by best WIPS (ties broken by name). Contains no
/// timestamps, job counts or machine state — two same-seed runs render
/// byte-identically.
pub fn render_leaderboard(results: &[RaceResult], opts: &TournamentOptions) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("# Engine tournament leaderboard\n");
    let _ = writeln!(
        out,
        "# seed={} budget={} candidates={}",
        opts.seed,
        opts.budget,
        opts.candidates.max(1)
    );
    let mut mixes: Vec<&str> = Vec::new();
    for r in results {
        if !mixes.contains(&r.mix.as_str()) {
            mixes.push(&r.mix);
        }
    }
    for mix in mixes {
        let _ = writeln!(out, "\n## mix={mix}");
        let mut rows: Vec<&RaceResult> = results.iter().filter(|r| r.mix == mix).collect();
        rows.sort_by(|a, b| {
            b.best_wips
                .total_cmp(&a.best_wips)
                .then_with(|| a.engine.cmp(&b.engine))
        });
        for (rank, r) in rows.iter().enumerate() {
            let hyper = r
                .hyper
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "{:>2}. {:<16} best_wips={:<10.3} evals={:<4} converged={:<3} hyper: {hyper}",
                rank + 1,
                r.engine,
                r.best_wips,
                r.evaluations,
                if r.converged { "yes" } else { "no" },
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TournamentOptions {
        TournamentOptions {
            budget: 25,
            candidates: 2,
            seed: 7,
            mixes: vec![WorkloadMix::browsing()],
        }
    }

    #[test]
    fn covers_every_engine_on_every_mix() {
        let results = run_tournament(&tiny(), &Executor::new(2));
        assert_eq!(results.len(), registry::ENGINE_NAMES.len());
        for name in registry::ENGINE_NAMES {
            assert!(results.iter().any(|r| r.engine == name));
        }
        for r in &results {
            assert!(r.best_wips.is_finite());
            assert!(r.evaluations > 0 && r.evaluations <= 25);
        }
    }

    #[test]
    fn same_seed_renders_byte_identically_at_any_job_count() {
        let opts = tiny();
        let a = render_leaderboard(&run_tournament(&opts, &Executor::new(1)), &opts);
        let b = render_leaderboard(&run_tournament(&opts, &Executor::new(4)), &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_tournament(&tiny(), &Executor::new(1));
        let mut opts = tiny();
        opts.seed = 8;
        let b = run_tournament(&opts, &Executor::new(1));
        assert_ne!(a, b, "candidate draws must depend on the seed");
    }
}
