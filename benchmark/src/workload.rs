//! The four workloads and one repetition of any of them: fresh daemons,
//! a fixed amount of work, every client call timed from outside.

use crate::host::{own_cpu_ns, rss_peak_mb, HostInfo, ProcSample, StealProbe};
use crate::inputs::{self, SessionPlan};
use crate::node::{reserve_addrs, Node, NodeSpec};
use crate::spans::Recorder;
use harmony::tuner::{Tuner, TuningOptions};
use harmony_net::client::{Client, RetryPolicy};
use harmony_net::protocol::SpaceSpec;
use harmony_net::NetError;
use harmony_space::parse_rsl;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Sessions of its own shape each workload runs before the timed
/// phase, so `setup_s` is never a 3 ms number whose jitter is its value
/// and the timed phase starts on warm code paths. (`websim_tune` warms
/// up with one rotation of its mixes: twenty sessions of 100 DES runs
/// would be longer than its timed phase.)
const WARMUP_SESSIONS: usize = 20;
const WEBSIM_WARMUP_SESSIONS: usize = 3;

/// First port tried for daemons (rule 4). The same for every seed:
/// ring members are named by address, so the ports decide the ring's
/// layout, and with it how many members each recorded run is shipped
/// to (1.2 against 1.5 per session between two seed-derived layouts,
/// which moved `session_end_p50_ms` by a tenth). Below the kernel's
/// ephemeral range (32768–60999), so that none of the thousands of
/// client connections of a run can be handed a member's port as its
/// local port and push the member to another one.
pub const PORT_BASE: u16 = 22_000;

/// Ring size and replication factor of `ring_replicated`.
const RING_MEMBERS: usize = 3;
const RING_REPLICATION: usize = 2;

/// Classification gate of the cold workloads' daemons; their sessions'
/// characteristics are 1.0 apart, so nothing ever matches.
const COLD_MATCH_GATE: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RpcHot,
    ExperienceChurn,
    WebsimTune,
    RingReplicated,
}

pub const ALL: [Workload; 4] = [
    Workload::RpcHot,
    Workload::ExperienceChurn,
    Workload::WebsimTune,
    Workload::RingReplicated,
];

/// Size of one repetition. Session counts scale with the repetition's
/// share of `--seconds`; everything else is the workload's identity.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub clients: usize,
    pub sessions_per_client: usize,
    pub budget: usize,
    /// Reconnect for every session, as `tune --remote` does.
    pub fresh_connection: bool,
    /// Prior runs in the seed snapshot (0 = the daemon starts empty
    /// and, for the cold workloads, without a database file).
    pub seed_runs: usize,
    pub warmup_sessions: usize,
    /// Consecutive evaluation completions that make one throughput
    /// window: about 20 ms of work on the reference host.
    pub window_evals: usize,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::RpcHot => "rpc_hot",
            Workload::ExperienceChurn => "experience_churn",
            Workload::WebsimTune => "websim_tune",
            Workload::RingReplicated => "ring_replicated",
        }
    }

    /// Why the workload exists (also `BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::RpcHot => {
                "1 client, 1 reused v3 connection, bare daemon, ~0-cost objective, 200-evaluation \
                 sessions: the per-message floor of client, wire, reactor, task pool and kernel step"
            }
            Workload::ExperienceChurn => {
                "2 clients, fresh connection per 8-evaluation session, snapshot + WAL daemon: \
                 SessionStart (classify + warm start) and SessionEnd (database clone + index + \
                 WAL) dominate"
            }
            Workload::WebsimTune => {
                "the paper's use: 100-evaluation sessions over the 10-parameter web-service space, \
                 each evaluation a client-side DES run, warm-started from priors of the same mix; \
                 the daemon is <5 % of it"
            }
            Workload::RingReplicated => {
                "3-member ring, replication 2: the rpc_hot session path, but every request ships \
                 the session snapshot to a successor and every SessionEnd a WAL line"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sessions per client per second of a repetition's share of
    /// `--seconds`. On the reference host (2 vCPU Xeon @ 2.1 GHz,
    /// everything on one CPU) a timed phase then lasts 1 – 3 s:
    /// `rpc_hot` is kept at 1 s because its database, and with it the
    /// share of `SessionEnd`, grows with every session.
    fn sessions_per_second(self) -> f64 {
        match self {
            Workload::RpcHot => 45.0,
            Workload::ExperienceChurn => 250.0,
            Workload::WebsimTune => 4.5,
            Workload::RingReplicated => 25.0,
        }
    }

    pub fn shape(self, rep_seconds: f64) -> Shape {
        let sessions = (self.sessions_per_second() * rep_seconds).round().max(3.0) as usize;
        match self {
            Workload::RpcHot => Shape {
                clients: 1,
                sessions_per_client: sessions,
                budget: 200,
                fresh_connection: false,
                seed_runs: 0,
                warmup_sessions: WARMUP_SESSIONS,
                window_evals: 400,
            },
            Workload::ExperienceChurn => Shape {
                clients: 2,
                sessions_per_client: sessions,
                budget: 8,
                fresh_connection: true,
                seed_runs: CHURN_SEED_RUNS,
                warmup_sessions: WARMUP_SESSIONS,
                window_evals: 128,
            },
            Workload::WebsimTune => Shape {
                clients: 1,
                // Whole rotations of the three mixes.
                sessions_per_client: sessions.div_ceil(3) * 3,
                budget: 100,
                fresh_connection: false,
                seed_runs: 3 * WEBSIM_PRIORS_PER_MIX,
                warmup_sessions: WEBSIM_WARMUP_SESSIONS,
                window_evals: 8,
            },
            Workload::RingReplicated => Shape {
                clients: 1,
                sessions_per_client: sessions,
                budget: 40,
                fresh_connection: false,
                seed_runs: 0,
                warmup_sessions: WARMUP_SESSIONS,
                window_evals: 32,
            },
        }
    }

    /// Session plans for `client`: indices `first..first + count`.
    fn plans(
        self,
        seed: u64,
        client: usize,
        first: usize,
        count: usize,
        budget: usize,
    ) -> Vec<SessionPlan> {
        match self {
            Workload::RpcHot | Workload::RingReplicated => {
                inputs::quad_cold_plans(seed, first, count, budget)
            }
            Workload::ExperienceChurn => inputs::churn_plans(seed, client, first, count, budget),
            Workload::WebsimTune => inputs::websim_plans(seed, first, count, budget),
        }
    }

    /// The plans of the timed phase, per client. Warm-up sessions take
    /// the indices below `warmup_sessions`, so no label or cold
    /// characteristic is used twice.
    pub fn timed_plans(self, seed: u64, shape: &Shape) -> Vec<Vec<SessionPlan>> {
        (0..shape.clients)
            .map(|c| {
                self.plans(
                    seed,
                    c,
                    shape.warmup_sessions,
                    shape.sessions_per_client,
                    shape.budget,
                )
            })
            .collect()
    }
}

/// `experience_churn`'s seed snapshot: runs × records. Loading it is a
/// daemon restart over a real snapshot and is quadratic in its size
/// (`vendor/serde_json` re-validates the remaining input per string
/// character), which is why it is not larger.
pub const CHURN_SEED_RUNS: usize = 150;
pub const CHURN_SEED_RECORDS: usize = 24;

/// `websim_tune`'s seed database: analytic-fidelity prior runs per
/// mix, as long as the sessions themselves, so that training costs the
/// same whether a session matches a seeded run or an earlier session's.
const WEBSIM_PRIORS_PER_MIX: usize = 4;
const WEBSIM_PRIOR_BUDGET: usize = 100;

/// Operations attempted and failed: every `connect`, `start_session`,
/// `fetch`, `report` and `end_session` call and every correctness
/// check. A `NetError` or a failed check is a failure.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the operator (first few only).
    pub messages: Vec<String>,
}

impl Tally {
    fn note(&mut self, message: String) {
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.note(message);
    }

    /// Count one client call.
    fn call<T>(&mut self, what: &str, result: Result<T, NetError>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count one correctness check.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(message());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.messages {
            self.note(message);
        }
    }
}

/// The quality a session reached, from its measured performances.
#[derive(Debug, Clone)]
pub struct Quality {
    pub evals: usize,
    /// Evaluation (1-based) at which best-so-far first came within 1 %
    /// of the session's final best.
    pub evals_to_1pct: usize,
    /// Noise-free score of the final configuration.
    pub best_clean: f64,
    /// Evaluations below 80 % of the session's best (Table 2's "bad").
    pub bad_iters: usize,
}

impl Quality {
    pub fn of(perfs: &[f64], best_clean: f64) -> Quality {
        let best = perfs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let near = best - 0.01 * best.abs();
        let mut running = f64::NEG_INFINITY;
        let mut evals_to_1pct = perfs.len();
        for (i, &p) in perfs.iter().enumerate() {
            running = running.max(p);
            if running >= near {
                evals_to_1pct = i + 1;
                break;
            }
        }
        Quality {
            evals: perfs.len(),
            evals_to_1pct,
            best_clean,
            bad_iters: perfs.iter().filter(|&&p| p < 0.8 * best).count(),
        }
    }
}

/// One finished session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    pub quality: Quality,
    /// Durations of the `start_session` and `end_session` calls.
    pub start_ms: f64,
    pub end_ms: f64,
}

/// Everything one client thread measured.
pub struct ClientRun {
    /// Per evaluation, in µs: the two calls and their sum.
    pub fetch_us: Vec<f32>,
    pub report_us: Vec<f32>,
    pub rtt_us: Vec<f32>,
    /// Per evaluation: when its `report()` returned, in µs since the
    /// timed phase began.
    pub done_us: Vec<f64>,
    pub connect_us: Vec<f64>,
    pub sessions: Vec<SessionOutcome>,
    /// Configurations and performance bits of this client's first
    /// session, for the local-equality check.
    pub sampled: Vec<Step>,
    pub tally: Tally,
    pub recorder: Recorder,
}

fn dial(addr: &str, traced: bool) -> Result<Client, NetError> {
    Client::builder(addr)
        .retry(RetryPolicy::none())
        .tracing(traced)
        .connect()
}

/// Drive `plans` one after another, closed loop: each request waits for
/// its reply.
pub fn run_client(
    addr: &str,
    plans: &[SessionPlan],
    fresh_connection: bool,
    traced: bool,
    epoch: Instant,
    recorder: Recorder,
) -> ClientRun {
    let evals_hint: usize = plans.iter().map(|p| p.budget).sum();
    let mut run = ClientRun {
        fetch_us: Vec::with_capacity(evals_hint),
        report_us: Vec::with_capacity(evals_hint),
        rtt_us: Vec::with_capacity(evals_hint),
        done_us: Vec::with_capacity(evals_hint),
        connect_us: Vec::new(),
        sessions: Vec::with_capacity(plans.len()),
        sampled: Vec::new(),
        tally: Tally::default(),
        recorder,
    };
    let mut client: Option<Client> = None;
    let mut perfs: Vec<f64> = Vec::new();
    for (index, plan) in plans.iter().enumerate() {
        let session_t0 = Instant::now();
        run.recorder.begin_session(index);
        if fresh_connection {
            client = None;
        }
        if client.is_none() {
            let t0 = Instant::now();
            client = run.tally.call("connect", dial(addr, traced));
            let t1 = Instant::now();
            run.recorder.child("connect_hello", t0, t1);
            run.connect_us.push((t1 - t0).as_secs_f64() * 1e6);
        }
        let Some(conn) = client.as_mut() else {
            continue;
        };
        match drive_session(conn, plan, index == 0, epoch, &mut perfs, &mut run) {
            Some(outcome) => run.sessions.push(outcome),
            // The connection's state is unknown after a failed call.
            None => client = None,
        }
        run.recorder.end_session(session_t0, Instant::now());
    }
    run
}

/// One session: start, fetch/evaluate/report until done, end. `None`
/// when a call failed (already tallied).
fn drive_session(
    client: &mut Client,
    plan: &SessionPlan,
    sample: bool,
    epoch: Instant,
    perfs: &mut Vec<f64>,
    run: &mut ClientRun,
) -> Option<SessionOutcome> {
    let mut objective = plan.objective();
    perfs.clear();
    let t0 = Instant::now();
    let started = run.tally.call(
        "start_session",
        client.start_session(
            plan.space.clone(),
            plan.label.as_str(),
            plan.characteristics.clone(),
            Some(plan.budget),
        ),
    )?;
    let t1 = Instant::now();
    run.recorder.child("start_session", t0, t1);
    let start_ms = (t1 - t0).as_secs_f64() * 1e3;
    let trained_ok = match (&plan.trained_from_prefix, &started.trained_from) {
        (None, None) => true,
        (Some(prefix), Some(label)) => label.starts_with(prefix.as_str()),
        _ => false,
    };
    run.tally.check(trained_ok, || {
        format!(
            "{}: trained from {:?}, expected prefix {:?}",
            plan.label, started.trained_from, plan.trained_from_prefix
        )
    });

    let mut best: Option<f64> = None;
    loop {
        let t0 = Instant::now();
        let proposal = run.tally.call("fetch", client.fetch())?;
        let t1 = Instant::now();
        run.recorder.child("fetch", t0, t1);
        let Some(proposal) = proposal else { break };
        let y = objective.eval(&proposal.values);
        let t2 = Instant::now();
        run.tally.call("report", client.report(y))?;
        let t3 = Instant::now();
        run.recorder.child("eval", t1, t2);
        run.recorder.child("report", t2, t3);
        let fetch = (t1 - t0).as_secs_f64() * 1e6;
        let report = (t3 - t2).as_secs_f64() * 1e6;
        run.fetch_us.push(fetch as f32);
        run.report_us.push(report as f32);
        run.rtt_us.push((fetch + report) as f32);
        run.done_us.push((t3 - epoch).as_secs_f64() * 1e6);
        if sample {
            run.sampled
                .push((proposal.values.values().to_vec(), y.to_bits()));
        }
        if best.is_none_or(|b| y > b) {
            best = Some(y);
        }
        perfs.push(y);
    }

    let t0 = Instant::now();
    let summary = run.tally.call("end_session", client.end_session())?;
    let t1 = Instant::now();
    run.recorder.child("end_session", t0, t1);
    let end_ms = (t1 - t0).as_secs_f64() * 1e3;

    // The daemon's summary must equal the client's own record.
    let matches = best.is_some_and(|y| {
        summary.iterations == perfs.len() && summary.performance.to_bits() == y.to_bits()
    });
    run.tally.check(matches, || {
        format!(
            "{}: summary ({} iterations, best {}) differs from the client's record ({}, {best:?})",
            plan.label,
            summary.iterations,
            summary.performance,
            perfs.len(),
        )
    });
    Some(SessionOutcome {
        quality: Quality::of(perfs, objective.clean(&summary.best)),
        start_ms,
        end_ms,
    })
}

/// One fetched configuration and the bits of the performance it
/// measured.
type Step = (Vec<i64>, u64);

/// `plan` run on a cold local `Tuner`: the trajectory a sampled remote
/// session must reproduce bit-for-bit (the PR 1/6 property), and the
/// quality the session reaches without any prior experience.
fn local_cold_run(plan: &SessionPlan) -> (Vec<Step>, Quality) {
    let space = match &plan.space {
        SpaceSpec::Rsl(text) => parse_rsl(text).expect("benchmark RSL parses"),
        SpaceSpec::Explicit(space) => space.clone(),
    };
    let tuner = Tuner::new(
        space,
        TuningOptions::improved().with_max_iterations(plan.budget),
    );
    let mut session = tuner.session();
    let mut objective = plan.objective();
    let mut trajectory = Vec::with_capacity(plan.budget);
    let mut perfs = Vec::with_capacity(plan.budget);
    while let Some(cfg) = session.next_config() {
        let y = objective.eval(&cfg);
        trajectory.push((cfg.values().to_vec(), y.to_bits()));
        perfs.push(y);
        if session.observe(y).is_err() {
            break;
        }
    }
    let clean = session.best().map_or(0.0, |(cfg, _)| objective.clean(cfg));
    (trajectory, Quality::of(&perfs, clean))
}

/// What the same sessions reach on a cold local kernel (`kernel.cold_*`).
pub fn cold_outcomes(plans: &[SessionPlan]) -> Vec<Quality> {
    plans.iter().map(|plan| local_cold_run(plan).1).collect()
}

/// Sum of every series of `name` whose label set contains `label`
/// (`""` matches all) in a Prometheus text exposition — the daemon's
/// public `Stats` answer, or this process's own registry.
pub fn sum_series(text: &str, name: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, rest) = match l.find('}') {
                Some(close) => l.split_at(close + 1),
                None => l.split_at(l.find(' ')?),
            };
            let series_name = series.split('{').next()?;
            if series_name != name || !series.contains(label) {
                return None;
            }
            rest.split_whitespace().next()?.parse::<f64>().ok()
        })
        .sum()
}

/// The running daemons of one repetition.
struct Cluster {
    /// Member 0 is the one clients talk to (the owner).
    nodes: Vec<Node>,
    /// Admin connections for `Stats`/`DbQuery`, one per member. They
    /// speak JSON (protocol 2), so their frames stay out of the binary
    /// series the session traffic is counted in.
    admin: Vec<Client>,
}

impl Cluster {
    /// The owner's `Stats` exposition.
    fn owner_stats(&mut self) -> String {
        self.admin[0].stats().unwrap_or_default()
    }
}

/// Counter deltas over the timed phase of a traced repetition.
#[derive(Debug, Clone, Default)]
pub struct LayerCounters {
    /// The owner's `Stats` exposition before and after.
    pub owner_before: String,
    pub owner_after: String,
    pub owner_proc: ProcSample,
    pub peers_proc: ProcSample,
    /// CPU time of this process, which is the clients.
    pub client_cpu_ns: u64,
    /// Bytes this process (the clients) encoded, binary format.
    pub client_bytes: f64,
}

impl LayerCounters {
    pub fn owner_delta(&self, name: &str, label: &str) -> f64 {
        sum_series(&self.owner_after, name, label) - sum_series(&self.owner_before, name, label)
    }
}

/// One finished repetition.
pub struct Rep {
    pub workload: Workload,
    pub setup_s: f64,
    pub wall_s: f64,
    pub clients: Vec<ClientRun>,
    /// `VmHWM` summed over the daemons.
    pub rss_peak_mb: f64,
    pub steal_share: f64,
    pub counters: Option<LayerCounters>,
    pub tally: Tally,
    pub addrs: Vec<String>,
    pub window_evals: usize,
}

impl Rep {
    pub fn evals(&self) -> usize {
        self.clients.iter().map(|c| c.rtt_us.len()).sum()
    }

    pub fn sessions(&self) -> impl Iterator<Item = &SessionOutcome> {
        self.clients.iter().flat_map(|c| c.sessions.iter())
    }

    pub fn session_count(&self) -> usize {
        self.clients.iter().map(|c| c.sessions.len()).sum()
    }
}

/// Removes the repetition's scratch directory on every exit path.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes this process has encoded in the binary wire format.
fn own_binary_bytes() -> f64 {
    sum_series(
        &harmony_obs::metrics::global().encode(),
        "harmony_net_frame_bytes_total",
        "binary",
    )
}

/// Run one repetition of `workload`: set up fresh daemons, warm up, run
/// the timed phase, check the outcome, shut the daemons down.
pub fn run_rep(
    workload: Workload,
    seed: u64,
    rep_seconds: f64,
    traced: bool,
    host: &HostInfo,
    scratch_root: &Path,
) -> Result<Rep, String> {
    let shape = workload.shape(rep_seconds);
    let setup_t0 = Instant::now();

    // Scratch files and the seed database.
    let scratch = ScratchDir(scratch_root.join(workload.name()));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("scratch dir: {e}"))?;
    let db_path = match workload {
        Workload::ExperienceChurn => {
            let path = scratch.0.join("experience.json");
            inputs::churn_seed_db(seed, shape.seed_runs, CHURN_SEED_RECORDS)
                .save(&path)
                .map_err(|e| format!("seed snapshot: {e}"))?;
            Some(path)
        }
        Workload::WebsimTune => {
            let path = scratch.0.join("experience.json");
            inputs::websim_seed_db(seed, WEBSIM_PRIORS_PER_MIX, WEBSIM_PRIOR_BUDGET)
                .save(&path)
                .map_err(|e| format!("seed snapshot: {e}"))?;
            Some(path)
        }
        Workload::RpcHot | Workload::RingReplicated => None,
    };

    // Daemons, up to `Hello` on every member.
    let members = if workload == Workload::RingReplicated {
        RING_MEMBERS
    } else {
        1
    };
    let addrs = reserve_addrs(PORT_BASE, members)?;
    let cold = db_path.is_none();
    let mut nodes = Vec::with_capacity(members);
    for (i, addr) in addrs.iter().enumerate() {
        let peers = addrs
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, a)| a.clone())
            .collect::<Vec<_>>();
        nodes.push(Node::spawn(&NodeSpec {
            addr: addr.clone(),
            replication: if members > 1 { RING_REPLICATION } else { 0 },
            peers: if members > 1 { peers } else { Vec::new() },
            db: db_path.clone(),
            tracing: traced,
            match_gate: cold.then_some(COLD_MATCH_GATE),
        })?);
    }
    for node in &mut nodes {
        node.await_hello()?;
    }

    // Warm-up: sessions of the workload's own shape, on one client.
    let mut tally = Tally::default();
    let owner = addrs[0].clone();
    let warmup = workload.plans(seed, shape.clients, 0, shape.warmup_sessions, shape.budget);
    let warm = run_client(
        &owner,
        &warmup,
        shape.fresh_connection,
        false,
        Instant::now(),
        Recorder::new(0, None),
    );
    tally.absorb(warm.tally);
    let timed_plans = workload.timed_plans(seed, &shape);
    let setup_s = setup_t0.elapsed().as_secs_f64();

    let admin = addrs
        .iter()
        .map(|a| {
            Client::builder(a.as_str())
                .retry(RetryPolicy::none())
                .max_protocol_version(2)
                .connect()
                .map_err(|e| format!("admin connection to {a}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut cluster = Cluster { nodes, admin };

    // Timed phase.
    let owner_pid = cluster.nodes[0].pid();
    let peer_pids: Vec<u32> = cluster.nodes[1..].iter().map(Node::pid).collect();
    let before = traced.then(|| {
        (
            cluster.owner_stats(),
            ProcSample::read(owner_pid),
            ProcSample::read_all(&peer_pids),
            own_cpu_ns(),
            own_binary_bytes(),
        )
    });
    let steal = StealProbe::start(host.pinned_cpu);
    let epoch = Instant::now();
    let clients: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = timed_plans
            .iter()
            .enumerate()
            .map(|(c, plans)| {
                let owner = owner.as_str();
                let recorder = Recorder::new(c, traced.then_some(epoch));
                scope.spawn(move || {
                    run_client(
                        owner,
                        plans,
                        shape.fresh_connection,
                        traced,
                        epoch,
                        recorder,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let steal_share = steal.share();
    let counters = before.map(|(stats0, owner0, peers0, client0, bytes0)| LayerCounters {
        owner_after: cluster.owner_stats(),
        owner_before: stats0,
        owner_proc: ProcSample::read(owner_pid).since(&owner0),
        peers_proc: ProcSample::read_all(&peer_pids).since(&peers0),
        client_cpu_ns: own_cpu_ns() - client0,
        client_bytes: own_binary_bytes() - bytes0,
    });
    let rss_peak_mb = cluster.nodes.iter().map(|n| rss_peak_mb(n.pid())).sum();

    // Correctness of the repetition as a whole.
    let mut rep = Rep {
        workload,
        setup_s,
        wall_s,
        clients,
        rss_peak_mb,
        steal_share,
        counters,
        tally,
        addrs,
        window_evals: shape.window_evals,
    };
    check_rep(&mut rep, &mut cluster, &shape, &timed_plans);
    for client in &mut rep.clients {
        rep.tally.absorb(std::mem::take(&mut client.tally));
    }

    // Clean shutdown: stdin EOF, so the flusher's final compaction is
    // inside the repetition.
    drop(cluster.admin);
    for node in cluster.nodes {
        let addr = node.addr.clone();
        let stopped = node.stop();
        rep.tally
            .check(stopped.is_ok(), || format!("{addr}: {stopped:?}"));
    }
    Ok(rep)
}

/// The per-workload checks of the issue's "Correctness checks" list.
fn check_rep(rep: &mut Rep, cluster: &mut Cluster, shape: &Shape, plans: &[Vec<SessionPlan>]) {
    let expected_sessions = shape.clients * shape.sessions_per_client;
    let done = rep.session_count();
    rep.tally.check(done == expected_sessions, || {
        format!("{done} of {expected_sessions} sessions completed")
    });

    // Every run recorded: seed runs + warm-up + timed sessions.
    let expected_runs = shape.seed_runs + shape.warmup_sessions + expected_sessions;
    let labels: Vec<Vec<String>> = cluster
        .admin
        .iter_mut()
        .map(|admin| {
            admin
                .db_runs()
                .map(|runs| runs.into_iter().map(|r| r.label).collect())
                .unwrap_or_default()
        })
        .collect();
    match rep.workload {
        Workload::RingReplicated => {
            // Every run is queryable on its replica set: with
            // replication 2 of 3, on the owner and on at least one
            // successor.
            let all_plans = plans.iter().flatten();
            let mut missing = 0usize;
            for plan in all_plans {
                let holders = labels
                    .iter()
                    .filter(|member| member.contains(&plan.label))
                    .count();
                if holders < RING_REPLICATION {
                    missing += 1;
                }
            }
            rep.tally.check(missing == 0, || {
                format!("{missing} runs are on fewer than {RING_REPLICATION} members")
            });
            let owner = cluster.owner_stats();
            let failures = sum_series(&owner, "harmony_net_peer_ship_failures_total", "");
            let redirects = sum_series(&owner, "harmony_net_shard_redirects_total", "");
            rep.tally.check(failures == 0.0 && redirects == 0.0, || {
                format!("{failures} peer ship failures, {redirects} redirects")
            });
        }
        _ => {
            let runs = labels[0].len();
            rep.tally.check(runs == expected_runs, || {
                format!("daemon holds {runs} runs, expected {expected_runs}")
            });
        }
    }

    // A sampled cold session equals a local Tuner run, bit for bit.
    if matches!(rep.workload, Workload::RpcHot | Workload::RingReplicated) {
        let plan = &plans[0][0];
        let same = local_cold_run(plan).0 == rep.clients[0].sampled;
        rep.tally.check(same, || {
            format!(
                "{}: remote trajectory differs from a local Tuner run",
                plan.label
            )
        });
    }
}
