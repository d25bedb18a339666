//! Cross-crate determinism guarantees of the execution engine: every
//! parallel path produces bit-identical results to its sequential
//! counterpart, a panicking objective cannot poison the pool, and one
//! memo cache carries measurements across the stages of a session.

use harmony::engine::drive_parallel;
use harmony::objective::FnObjective;
use harmony::prelude::*;
use harmony::search::{exhaustive_search, exhaustive_search_with};
use harmony::sensitivity::Prioritizer;
use harmony_exec::{Executor, MemoCache};
use harmony_space::{ParamDef, ParameterSpace};
use harmony_synth::scenario::section5_system;
use std::convert::Infallible;

fn small_space() -> ParameterSpace {
    ParameterSpace::builder()
        .param(ParamDef::int("a", 0, 9, 0, 1))
        .param(ParamDef::int("b", 0, 9, 0, 1))
        .build()
        .unwrap()
}

#[test]
fn sensitivity_is_bit_identical_at_any_job_count() {
    let sys = section5_system([0.3, 0.5, 0.2], 0.0, 0);
    let eval = |cfg: &Configuration| sys.evaluate_clean(cfg);
    let prioritizer = || Prioritizer::new(sys.space().clone()).with_max_samples(6);
    let mut obj = FnObjective::new(eval);
    let sequential = prioritizer().analyze(&mut obj);
    for jobs in [1usize, 2, 4, 8] {
        let parallel = prioritizer().analyze_with(&eval, &Executor::new(jobs), None);
        assert_eq!(parallel, sequential, "jobs={jobs}");
    }
}

#[test]
fn tuning_is_bit_identical_at_any_job_count() {
    let sys = section5_system([0.4, 0.3, 0.3], 0.0, 1);
    let eval = |cfg: &Configuration| sys.evaluate_clean(cfg);
    let options = TuningOptions::improved().with_max_iterations(80);
    let tuner = Tuner::new(sys.space().clone(), options.clone());
    let mut obj = FnObjective::new(eval);
    let sequential = tuner.run(&mut obj);
    for jobs in [1usize, 2, 4, 8] {
        let mut engine = tuner.session();
        let ok = |c: &Configuration| Ok::<_, Infallible>(eval(c));
        let parallel = drive_parallel(&mut engine, &ok, &Executor::new(jobs), None).unwrap();
        assert_eq!(parallel.trace, sequential.trace, "jobs={jobs}");
        assert_eq!(
            parallel.best_configuration, sequential.best_configuration,
            "jobs={jobs}"
        );
    }
}

#[test]
fn exhaustive_sweep_is_bit_identical_at_any_job_count() {
    let space = small_space();
    let eval = |cfg: &Configuration| -((cfg.get(0) - 7).pow(2) + (cfg.get(1) - 2).pow(2)) as f64;
    let mut obj = FnObjective::new(eval);
    let sequential = exhaustive_search(&space, &mut obj).unwrap();
    for jobs in [1usize, 2, 4, 8] {
        let parallel = exhaustive_search_with(&space, &eval, &Executor::new(jobs), None).unwrap();
        assert_eq!(parallel, sequential, "jobs={jobs}");
    }
}

#[test]
fn a_panicking_objective_does_not_poison_the_pool() {
    let space = small_space();
    let executor = Executor::new(4);
    let exploding = |cfg: &Configuration| {
        if cfg.get(0) == 5 {
            panic!("measurement blew up");
        }
        cfg.get(1) as f64
    };
    let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        exhaustive_search_with(&space, &exploding, &executor, None)
    }));
    assert!(boom.is_err(), "the panic must propagate to the caller");

    // The same executor keeps working afterwards, and still matches the
    // sequential result exactly.
    let eval = |cfg: &Configuration| (cfg.get(0) * 10 + cfg.get(1)) as f64;
    let mut obj = FnObjective::new(eval);
    let sequential = exhaustive_search(&space, &mut obj).unwrap();
    let parallel = exhaustive_search_with(&space, &eval, &executor, None).unwrap();
    assert_eq!(parallel, sequential);
}

#[test]
fn one_cache_carries_measurements_across_session_stages() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let space = small_space();
    let calls = AtomicUsize::new(0);
    let eval = |cfg: &Configuration| {
        calls.fetch_add(1, Ordering::Relaxed);
        -((cfg.get(0) - 7).pow(2) + (cfg.get(1) - 2).pow(2)) as f64
    };
    let executor = Executor::new(4);
    let cache = MemoCache::new(100_000);

    // Stage 1: sensitivity analysis seeds the cache.
    let report = Prioritizer::new(space.clone()).analyze_with(&eval, &executor, Some(&cache));
    assert!(!report.ranked().is_empty());
    let after_sensitivity = calls.load(Ordering::Relaxed);
    assert!(after_sensitivity > 0);

    // Stage 2: a cached tuning run behaves exactly like an uncached one
    // (the eval is deterministic), while any exploration already covered
    // by stage 1 costs nothing.
    let run = |cache: Option<&MemoCache>| {
        let options = TuningOptions::improved().with_max_iterations(60);
        let mut engine = Tuner::new(space.clone(), options).session();
        let ok = |c: &Configuration| Ok::<_, Infallible>(eval(c));
        drive_parallel(&mut engine, &ok, &executor, cache).unwrap()
    };
    let uncached = run(None);
    let first = run(Some(&cache));
    assert_eq!(first.trace, uncached.trace);
    let after_first = calls.load(Ordering::Relaxed);

    // Stage 3: repeating the run — the paper's "prior runs inform later
    // runs" scenario — is answered entirely from the cache: not a single
    // new measurement.
    let second = run(Some(&cache));
    assert_eq!(second.trace, first.trace);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        after_first,
        "a repeated cached run must not re-measure anything"
    );
    assert!(cache.hits() >= first.trace.len() as u64);
}
