//! Everything a workload feeds the system, generated from `--seed`:
//! parameter spaces, objectives, seed databases and session plans. The
//! daemons receive only these generated inputs, never the seed.

use harmony::history::{ExperienceDb, RunHistory};
use harmony::objective::FnObjective;
use harmony::tuner::{Tuner, TuningOptions};
use harmony_net::protocol::SpaceSpec;
use harmony_space::Configuration;
use harmony_websim::{webservice_space, Fidelity, WebServiceSystem, WorkloadMix};

/// The 4-integer-parameter space of the three synthetic workloads, as
/// the RSL text a `tune --remote` client sends.
pub const QUAD_RSL: &str = "{ harmonyBundle cache { int {0 100 1} }}\n\
{ harmonyBundle threads { int {0 100 1} }}\n\
{ harmonyBundle batch { int {0 100 1} }}\n\
{ harmonyBundle queue { int {0 100 1} }}";

/// Curvature of the quadratic per parameter.
const QUAD_WEIGHTS: [f64; 4] = [0.040, 0.030, 0.020, 0.010];

/// splitmix64: seed data without a PRNG dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        finalize(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An independent sub-seed of `seed` for stream `stream`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    finalize(seed ^ finalize(stream.wrapping_add(0x51ed_270b_7f4a_7c15)))
}

/// `1000 − Σ wᵢ (xᵢ − oᵢ)²`, optionally multiplied by a deterministic
/// ripple of relative amplitude `ripple`, hashed from the configuration
/// and the evaluation's index — measurement noise that repeats
/// bit-for-bit. It keeps the simplex from converging (on the bare
/// quadratic it stops at ≈53 evaluations, and with a ripple that only
/// depends on the configuration at ≈73, once the simplex has collapsed
/// onto one lattice point; session turnover then takes over the
/// workload) and costs ≈0 to evaluate.
#[derive(Debug, Clone)]
pub struct Quad {
    pub optimum: [f64; 4],
    pub ripple: f64,
    pub salt: u64,
    /// Evaluations so far.
    pub evals: u64,
}

impl Quad {
    pub fn clean(&self, values: &[i64]) -> f64 {
        let loss: f64 = values
            .iter()
            .zip(self.optimum)
            .zip(QUAD_WEIGHTS)
            .map(|((&x, o), w)| w * (x as f64 - o).powi(2))
            .sum();
        1000.0 - loss
    }

    pub fn eval(&mut self, values: &[i64]) -> f64 {
        let clean = self.clean(values);
        if self.ripple == 0.0 {
            return clean;
        }
        self.evals += 1;
        let hash = values
            .iter()
            .fold(self.salt ^ self.evals, |h, &x| finalize(h ^ x as u64));
        let unit = (hash >> 11) as f64 / (1u64 << 53) as f64;
        clean * (1.0 + self.ripple * (2.0 * unit - 1.0))
    }
}

/// Where a quadratic's optimum sits for a workload with these
/// characteristics: nearby characteristics mean nearby optima, which is
/// what makes a classified prior run worth training from.
fn optimum_for(characteristics: &[f64]) -> [f64; 4] {
    let c = |i: usize| characteristics[i % characteristics.len()];
    [
        20.0 + 60.0 * c(0),
        20.0 + 60.0 * c(1),
        20.0 + 60.0 * c(2),
        20.0 + 30.0 * (c(0) + c(1)),
    ]
}

/// The three TPC-W mixes, in rotation order.
pub fn mix(index: usize) -> WorkloadMix {
    match index % 3 {
        0 => WorkloadMix::browsing(),
        1 => WorkloadMix::shopping(),
        _ => WorkloadMix::ordering(),
    }
}

/// Requests sampled to observe a mix's characteristics (§6.4).
const OBSERVED_REQUESTS: usize = 2_000;

/// What the client measures in one session.
#[derive(Debug, Clone)]
pub enum ObjectiveSpec {
    Quad(Quad),
    /// A DES run of the web-service cluster under mix `mix`.
    Websim {
        mix: usize,
        seed: u64,
    },
}

/// A live objective; websim ones carry the simulator's RNG.
pub enum Objective {
    Quad(Quad),
    Websim(Box<WebServiceSystem>),
}

impl Objective {
    pub fn eval(&mut self, cfg: &Configuration) -> f64 {
        match self {
            Objective::Quad(q) => q.eval(cfg.values()),
            Objective::Websim(system) => system.evaluate(cfg),
        }
    }

    /// Noise-free score of `cfg` (the quadratic itself / analytic WIPS).
    pub fn clean(&self, cfg: &Configuration) -> f64 {
        match self {
            Objective::Quad(q) => q.clean(cfg.values()),
            Objective::Websim(system) => system.evaluate_clean(cfg),
        }
    }
}

/// One session a client will drive.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    pub label: String,
    pub characteristics: Vec<f64>,
    pub space: SpaceSpec,
    pub budget: usize,
    pub objective: ObjectiveSpec,
    /// Prefix the label of the prior run this session trains from must
    /// carry; `None` when the session must start cold.
    pub trained_from_prefix: Option<String>,
}

impl SessionPlan {
    pub fn objective(&self) -> Objective {
        match &self.objective {
            ObjectiveSpec::Quad(q) => Objective::Quad(q.clone()),
            ObjectiveSpec::Websim { mix: m, seed } => Objective::Websim(Box::new(
                WebServiceSystem::new(mix(*m), Fidelity::Des, 0.0, *seed),
            )),
        }
    }
}

/// Cold 200-evaluation-budget sessions on the rippled quadratic
/// (`rpc_hot`, and with a smaller budget `ring_replicated`). Session
/// `i` has the one-dimensional characteristic `[i]`; the daemon runs
/// with a 0.5 match gate, so no session ever trains from another and
/// every trajectory equals a local cold `Tuner` run.
pub fn quad_cold_plans(seed: u64, first: usize, count: usize, budget: usize) -> Vec<SessionPlan> {
    (first..first + count)
        .map(|i| {
            let mut rng = Rng::new(derive(seed, i as u64));
            let chars = [rng.unit(), rng.unit(), rng.unit()];
            SessionPlan {
                label: format!("hot-{i}"),
                characteristics: vec![i as f64],
                space: SpaceSpec::Rsl(QUAD_RSL.into()),
                budget,
                objective: ObjectiveSpec::Quad(Quad {
                    optimum: optimum_for(&chars),
                    ripple: 0.05,
                    salt: rng.next_u64(),
                    evals: 0,
                }),
                trained_from_prefix: None,
            }
        })
        .collect()
}

/// Short warm-started sessions on the bare quadratic
/// (`experience_churn`): three random characteristics decide the
/// optimum, so the nearest prior run is a useful one.
pub fn churn_plans(
    seed: u64,
    client: usize,
    first: usize,
    count: usize,
    budget: usize,
) -> Vec<SessionPlan> {
    (first..first + count)
        .map(|i| {
            let mut rng = Rng::new(derive(seed, ((client as u64 + 1) << 32) | i as u64));
            let chars = vec![rng.unit(), rng.unit(), rng.unit()];
            SessionPlan {
                label: format!("churn-{client}-{i}"),
                objective: ObjectiveSpec::Quad(Quad {
                    optimum: optimum_for(&chars),
                    ripple: 0.0,
                    salt: 0,
                    evals: 0,
                }),
                characteristics: chars,
                space: SpaceSpec::Rsl(QUAD_RSL.into()),
                budget,
                trained_from_prefix: Some(String::new()),
            }
        })
        .collect()
}

/// The seed snapshot `experience_churn`'s daemon loads at start:
/// `runs` prior runs of `records` explorations each, on the same space.
pub fn churn_seed_db(seed: u64, runs: usize, records: usize) -> ExperienceDb {
    let mut rng = Rng::new(derive(seed, 0xdb));
    let mut db = ExperienceDb::new();
    for i in 0..runs {
        let chars = vec![rng.unit(), rng.unit(), rng.unit()];
        let quad = Quad {
            optimum: optimum_for(&chars),
            ripple: 0.0,
            salt: 0,
            evals: 0,
        };
        let mut run = RunHistory::new(format!("seed{i}"), chars);
        for _ in 0..records {
            let values: Vec<i64> = (0..4).map(|_| rng.below(101) as i64).collect();
            let performance = quad.clean(&values);
            run.push(&Configuration::new(values), performance);
        }
        db.add_run(run);
    }
    db
}

/// Sessions rotating browsing / shopping / ordering over the
/// 10-parameter web-service space, each evaluation a DES run
/// (`websim_tune`).
pub fn websim_plans(seed: u64, first: usize, count: usize, budget: usize) -> Vec<SessionPlan> {
    (first..first + count)
        .map(|i| {
            let sim_seed = derive(seed, 0x3eb0_0000 + i as u64);
            let name = mix(i).name().to_string();
            // The probe that observes the characteristics is its own
            // system, so the session's DES stream starts fresh.
            let characteristics =
                WebServiceSystem::new(mix(i), Fidelity::Des, 0.0, derive(sim_seed, 1))
                    .observe_characteristics(OBSERVED_REQUESTS);
            SessionPlan {
                label: format!("{name}-{i}"),
                characteristics,
                space: SpaceSpec::Explicit(webservice_space()),
                budget,
                objective: ObjectiveSpec::Websim {
                    mix: i,
                    seed: sim_seed,
                },
                trained_from_prefix: Some(name),
            }
        })
        .collect()
}

/// `websim_tune`'s seed database: `per_mix` prior runs of each mix,
/// tuned locally against the analytic model (part of set-up, so
/// `websim.analytic_eval_us` shows in `setup_s`).
pub fn websim_seed_db(seed: u64, per_mix: usize, budget: usize) -> ExperienceDb {
    let tuner = Tuner::new(
        webservice_space(),
        TuningOptions::improved().with_max_iterations(budget),
    );
    let mut db = ExperienceDb::new();
    for m in 0..3 {
        for k in 0..per_mix {
            let sim_seed = derive(seed, 0xa11a_0000 + (m * per_mix + k) as u64);
            let mut system = WebServiceSystem::new(mix(m), Fidelity::Analytic, 0.02, sim_seed);
            let characteristics = system.observe_characteristics(OBSERVED_REQUESTS);
            let outcome = tuner.run(&mut FnObjective::new(|cfg: &Configuration| {
                system.evaluate(cfg)
            }));
            db.add_run(outcome.to_history(format!("{}-prior{k}", mix(m).name()), characteristics));
        }
    }
    db
}
