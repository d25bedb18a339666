//! Cross-crate guarantees of the pluggable search engines: the simplex
//! session driven as an engine is trajectory-identical to the classic
//! tuner, every engine is bit-identical at any job count, warm starting
//! from classified prior experience saves measurements, the tournament
//! renders deterministically, and no engine ever proposes an infeasible
//! configuration.

use harmony::engine::{drive, drive_parallel};
use harmony::history::{DataAnalyzer, ExperienceDb};
use harmony::kernel::SimplexOptions;
use harmony::objective::FnObjective;
use harmony::prelude::*;
use harmony::tuner::TrainingMode;
use harmony_engines::{registry, render_leaderboard, run_tournament};
use harmony_engines::{TournamentOptions, ENGINE_NAMES};
use harmony_exec::{Executor, MemoCache};
use harmony_space::{ParamDef, ParameterSpace};
use harmony_websim::{Fidelity, WebServiceSystem, WorkloadMix};
use proptest::prelude::*;
use std::convert::Infallible;

fn shopping_system() -> WebServiceSystem {
    WebServiceSystem::new(WorkloadMix::shopping(), Fidelity::Analytic, 0.0, 11)
}

#[test]
fn simplex_engine_reproduces_the_tuner_exactly() {
    for (name, options) in [
        ("improved", TuningOptions::improved()),
        ("original", TuningOptions::original()),
    ] {
        let options = options.with_max_iterations(120);
        let sys = shopping_system();
        let eval = |cfg: &Configuration| sys.evaluate_clean(cfg);

        let tuner = Tuner::new(sys.space().clone(), options.clone());
        let reference = tuner.run(&mut FnObjective::new(eval));

        let mut engine = Tuner::new(sys.space().clone(), options)
            .session_with(SimplexOptions::default(), TrainingMode::Replay(10));
        let ported = drive(&mut engine, |c| Ok::<_, Infallible>(eval(c))).unwrap();

        assert_eq!(ported.trace, reference.trace, "{name}: trajectory differs");
        assert_eq!(
            ported.best_configuration, reference.best_configuration,
            "{name}"
        );
        assert_eq!(
            ported.best_performance, reference.best_performance,
            "{name}"
        );
        assert_eq!(ported.converged, reference.converged, "{name}");
    }
}

#[test]
fn every_engine_is_bit_identical_at_any_job_count() {
    let sys = shopping_system();
    let eval = |cfg: &Configuration| sys.evaluate_clean(cfg);
    let ok = |c: &Configuration| Ok::<_, Infallible>(eval(c));
    let cold = |name: &str| {
        registry::lookup(name)
            .unwrap()
            .build(sys.space().clone(), 90, 5)
    };
    // Warm-started engines open differently (the simplex with the live
    // refresh batch of its trained vertices rather than the initial
    // simplex), so every engine runs both cold and from a prior run.
    let prior = drive(cold("simplex").as_mut(), |c| Ok::<_, Infallible>(eval(c)))
        .unwrap()
        .to_history("prior", vec![]);
    for name in ENGINE_NAMES {
        for warm in [false, true] {
            let build = || {
                let mut engine = cold(name);
                if warm {
                    engine.warm_start(&prior);
                }
                engine
            };
            let sequential = drive(build().as_mut(), |c| Ok::<_, Infallible>(eval(c))).unwrap();
            for jobs in [1usize, 2, 4] {
                let parallel =
                    drive_parallel(build().as_mut(), &ok, &Executor::new(jobs), None).unwrap();
                assert_eq!(
                    parallel, sequential,
                    "{name} (warm={warm}) diverges at jobs={jobs}"
                );
            }
            // The memo cache answers revisited points without
            // re-evaluating; for a deterministic objective the outcome
            // is unchanged.
            let cache = MemoCache::new(4096);
            let cached =
                drive_parallel(build().as_mut(), &ok, &Executor::new(4), Some(&cache)).unwrap();
            assert_eq!(
                cached, sequential,
                "{name} (warm={warm}) diverges with a memo cache"
            );
        }
    }
}

#[test]
fn warm_started_divide_diverge_converges_in_fewer_evaluations() {
    let sys = shopping_system();
    let eval = |cfg: &Configuration| sys.evaluate_clean(cfg);
    let characteristics = vec![0.21, 0.75, 0.04];
    let spec = registry::lookup("divide-diverge").unwrap();
    let budget = 4000;

    // A cold run, recorded into an experience database.
    let mut cold_engine = spec.build(sys.space().clone(), budget, 5);
    let cold = drive(cold_engine.as_mut(), |c| Ok::<_, Infallible>(eval(c))).unwrap();
    assert!(cold.converged, "budget must be high enough to converge");
    let mut db = ExperienceDb::new();
    db.add_run(cold.to_history("shopping-night", characteristics.clone()));

    // A later session classifies against the database and warm starts.
    let prior = DataAnalyzer::new()
        .select(&db, &characteristics)
        .expect("identical characteristics classify");
    let mut warm_engine = spec.build(sys.space().clone(), budget, 5);
    warm_engine.warm_start(&prior);
    let warm = drive(warm_engine.as_mut(), |c| Ok::<_, Infallible>(eval(c))).unwrap();

    assert!(warm.converged, "warm run must also converge");
    assert!(
        warm.trace.len() < cold.trace.len(),
        "warm start should save measurements: warm {} vs cold {}",
        warm.trace.len(),
        cold.trace.len()
    );
    // And the prior knowledge must not cost solution quality.
    assert!(
        warm.best_performance >= 0.98 * cold.best_performance,
        "warm {} vs cold {}",
        warm.best_performance,
        cold.best_performance
    );
}

#[test]
fn tournament_is_deterministic_for_a_fixed_seed() {
    let opts = TournamentOptions {
        budget: 20,
        candidates: 2,
        seed: 3,
        mixes: vec![WorkloadMix::browsing(), WorkloadMix::ordering()],
    };
    let a = render_leaderboard(&run_tournament(&opts, &Executor::new(4)), &opts);
    let b = render_leaderboard(&run_tournament(&opts, &Executor::new(1)), &opts);
    assert_eq!(a, b, "same seed must render byte-identically");
    for name in ENGINE_NAMES {
        assert!(a.contains(name), "{a}");
    }
    for mix in &opts.mixes {
        assert!(a.contains(&format!("## mix={}", mix.name())), "{a}");
    }
}

/// Strategy: a small, well-formed unrestricted parameter space.
fn arb_space() -> impl Strategy<Value = ParameterSpace> {
    proptest::collection::vec(
        (0i64..50, 1i64..60, 1i64..7).prop_map(|(lo, span, step)| (lo, lo + span, step)),
        1..5,
    )
    .prop_map(|dims| {
        ParameterSpace::new(
            dims.into_iter()
                .enumerate()
                .map(|(i, (lo, hi, step))| ParamDef::int(format!("p{i}"), lo, hi, lo, step))
                .collect(),
        )
        .expect("constructed valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_only_propose_feasible_configurations(
        space in arb_space(),
        seed in 1u64..1000,
    ) {
        for name in ENGINE_NAMES {
            let mut engine = registry::lookup(name)
                .unwrap()
                .build(space.clone(), 40, seed);
            let mut proposals = 0usize;
            while let Some(cfg) = engine.next_config() {
                prop_assert!(
                    space.is_feasible(&cfg).unwrap(),
                    "{} proposed infeasible {:?}",
                    name,
                    cfg
                );
                // Any deterministic score keeps the engine moving.
                let score = -(cfg.values().iter().map(|v| v * v).sum::<i64>() as f64);
                engine.observe(score).unwrap();
                proposals += 1;
            }
            prop_assert!(proposals <= 40, "{} overran its budget", name);
        }
    }
}
