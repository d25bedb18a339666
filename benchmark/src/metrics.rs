//! The metric catalogue — every name `BENCHMARK.json` lists, with unit
//! and direction — and how each number is computed from a repetition.

use crate::workload::{LayerCounters, Quality, Rep, SessionOutcome};
use harmony_linalg::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
    pub repeats: Repeats,
}

/// Whether a metric repeats bit-for-bit for a seed, in which case
/// `--selfcheck` demands equality in place of the bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repeats {
    /// A measurement: differs from run to run.
    Never,
    /// A count or a ratio of counts.
    Always,
    /// Decided by the sessions' trajectories, which the seed fixes only
    /// while one client drives them: two clients reach the database in
    /// an order that differs from run to run, and with it what each
    /// session trains from.
    WithOneClient,
}

impl MetricDef {
    pub fn is_exact(&self, clients: usize) -> bool {
        match self.repeats {
            Repeats::Never => false,
            Repeats::Always => true,
            Repeats::WithOneClient => clients == 1,
        }
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        repeats: Repeats::Never,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        repeats: Repeats::Never,
    }
}

const fn exact(mut def: MetricDef) -> MetricDef {
    def.repeats = Repeats::Always;
    def
}

const fn trajectory(mut def: MetricDef) -> MetricDef {
    def.repeats = Repeats::WithOneClient;
    def
}

use Better::{Higher, Lower};

/// What a user of the tuning service sees, reported for every workload.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("evals_per_s", "1/s", Higher, 0.20),
    e2e("sessions_per_s", "1/s", Higher, 0.20),
    e2e("iter_rtt_p50_us", "us", Lower, 0.25),
    e2e("session_start_p50_ms", "ms", Lower, 0.25),
    e2e("session_end_p50_ms", "ms", Lower, 0.25),
    e2e("daemon_rss_peak_mb", "MB", Lower, 0.10),
    trajectory(e2e("best_perf_clean", "score", Higher, 0.02)),
];

/// Single layers, named after the repository's modules. Source T = the
/// traced repetition (spans, `Stats` deltas, `/proc`), M = the `layers`
/// phase (direct calls into the layer's public functions).
pub const PER_LAYER: [MetricDef; 50] = [
    layer("client.fetch_p50_us", "us", Lower),
    layer("client.report_p50_us", "us", Lower),
    layer("client.iter_rtt_p99_us", "us", Lower),
    layer("client.connect_hello_us", "us", Lower),
    layer("client.cpu_us_per_eval", "us", Lower),
    layer("wire.encode_ns", "ns/msg", Lower),
    layer("wire.decode_ns", "ns/msg", Lower),
    layer("wire.json_encode_ns", "ns/msg", Lower),
    layer("wire.json_decode_ns", "ns/msg", Lower),
    layer("wire.bytes_per_eval", "B", Lower),
    layer("reactor.bare_rtt_p50_us", "us", Lower),
    layer("reactor.wakeups_per_eval", "ratio", Lower),
    layer("reactor.pipelined_share", "ratio", Higher),
    layer("exec.pool_handoff_us", "us", Lower),
    layer("server.cpu_us_per_eval", "us", Lower),
    layer("server.cpu_us_per_session", "us", Lower),
    layer("server.ctx_switches_per_eval", "count", Lower),
    exact(layer("server.requests_per_eval", "ratio", Lower)),
    exact(layer("server.warm_start_hit_share", "ratio", Higher)),
    exact(layer("server.snapshot_swaps_per_session", "ratio", Lower)),
    layer("server.trace_overhead_pct", "%", Lower),
    layer("space.parse_rsl_us", "us", Lower),
    layer("history.classify_us", "us", Lower),
    layer("history.db_clone_ms", "ms", Lower),
    layer("history.index_build_ms", "ms", Lower),
    layer("history.load_ms", "ms", Lower),
    layer("history.wal_append_us", "us", Lower),
    exact(layer("history.wal_bytes_per_run", "B", Lower)),
    layer("history.compact_ms", "ms", Lower),
    layer("kernel.step_ns", "ns", Lower),
    layer("kernel.train_us", "us", Lower),
    trajectory(layer("kernel.evals_per_session", "count", Lower)),
    trajectory(layer("kernel.bad_iter_share", "ratio", Lower)),
    trajectory(layer("kernel.evals_to_1pct", "count", Lower)),
    exact(layer("kernel.cold_evals_to_1pct", "count", Lower)),
    trajectory(layer("kernel.warm_start_savings_pct", "%", Higher)),
    layer("engines.simplex_step_ns", "ns", Lower),
    layer("linalg.lstsq_ns", "ns", Lower),
    layer("linalg.distance_ns", "ns", Lower),
    layer("websim.des_eval_ms", "ms", Lower),
    layer("websim.analytic_eval_us", "us", Lower),
    layer("serde_json.parse_mb_per_s_4k", "MB/s", Higher),
    layer("serde_json.parse_mb_per_s_snapshot", "MB/s", Higher),
    layer("serde_json.to_string_mb_per_s", "MB/s", Higher),
    layer("cluster.ship_bytes_per_eval", "B", Lower),
    exact(layer("cluster.sessions_shipped_per_eval", "ratio", Lower)),
    exact(layer("cluster.runs_shipped_per_session", "ratio", Lower)),
    exact(layer("cluster.ship_failures", "count", Lower)),
    layer("cluster.peer_cpu_us_per_eval", "us", Lower),
    layer("cluster.ring_owner_ns", "ns", Lower),
];

/// Median of an iterator's values (0 when empty).
pub fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    percentile_of(values, 0.5)
}

/// Percentile `q` of an iterator's values (0 when empty).
pub fn percentile_of(values: impl Iterator<Item = f64>, q: f64) -> f64 {
    stats::percentile(&values.collect::<Vec<_>>(), q).unwrap_or(0.0)
}

fn mean_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::mean(&values.collect::<Vec<_>>())
}

pub fn mean_evals_to_1pct<'a>(sessions: impl Iterator<Item = &'a Quality>) -> f64 {
    mean_of(sessions.map(|q| q.evals_to_1pct as f64))
}

/// What is kept of one repetition for the end-to-end metrics. Every
/// vector is in a fixed order — window by window, client by client,
/// session by session, evaluation by evaluation — and the work at each
/// position is the same in every repetition, because it is generated
/// from the seed.
pub struct RepSummary {
    pub setup_s: f64,
    pub rss_peak_mb: f64,
    pub clients: usize,
    pub evals: usize,
    pub steal_share: f64,
    pub window_evals: usize,
    /// Duration of each window of `window_evals` consecutive evaluation
    /// completions, all clients together, µs.
    pub window_us: Vec<f64>,
    /// `fetch` + `report` time of every evaluation, µs.
    pub rtt_us: Vec<f64>,
    pub sessions: Vec<SessionOutcome>,
}

impl RepSummary {
    pub fn of(rep: &Rep) -> RepSummary {
        let mut done: Vec<f64> = rep
            .clients
            .iter()
            .flat_map(|c| c.done_us.iter().copied())
            .collect();
        done.sort_by(f64::total_cmp);
        let n = rep.window_evals;
        // The phase starts at 0; a window ends at every n-th
        // completion. The incomplete tail is dropped.
        let mut window_us = Vec::with_capacity(done.len() / n);
        let mut window_start = 0.0;
        for end in done.iter().skip(n - 1).step_by(n) {
            window_us.push(end - window_start);
            window_start = *end;
        }
        RepSummary {
            setup_s: rep.setup_s,
            rss_peak_mb: rep.rss_peak_mb,
            clients: rep.clients.len(),
            evals: rep.evals(),
            steal_share: rep.steal_share,
            window_evals: n,
            window_us,
            rtt_us: rep
                .clients
                .iter()
                .flat_map(|c| c.rtt_us.iter().map(|&v| v as f64))
                .collect(),
            sessions: rep.sessions().cloned().collect(),
        }
    }
}

/// The timing of an undisturbed host, from repetitions on a disturbed
/// one: at each position take the fastest of the repetitions, then the
/// median over the positions.
///
/// Interference on a shared host only ever adds time, so the fastest of
/// five executions of the same work is the one the neighbours disturbed
/// least; the median over positions then is an ordinary p50 of that
/// cleaned-up run. Between identical runs on the build host the plain
/// median of `rpc_hot`'s round trip moved 22 %, this 3 % (README,
/// rule 2).
fn quiet_median<V: AsRef<[f64]>>(reps: &[V]) -> f64 {
    let positions = reps.iter().map(|r| r.as_ref().len()).min().unwrap_or(0);
    median_of((0..positions).map(|i| {
        reps.iter()
            .map(|rep| rep.as_ref()[i])
            .fold(f64::INFINITY, f64::min)
    }))
}

/// The end-to-end numbers of a set of repetitions, in catalogue order:
/// timings are [`quiet_median`]s; set-up, memory and the quality score
/// are medians over the repetitions.
pub fn end_to_end(reps: &[&RepSummary]) -> [f64; 8] {
    let over_reps = |f: fn(&RepSummary) -> f64| median_of(reps.iter().map(|r| f(r)));
    let per_session = |f: fn(&SessionOutcome) -> f64| {
        let columns: Vec<Vec<f64>> = reps
            .iter()
            .map(|r| r.sessions.iter().map(f).collect())
            .collect();
        quiet_median(&columns)
    };
    let window_evals = reps.first().map_or(1, |r| r.window_evals) as f64;
    let window_us = quiet_median(&reps.iter().map(|r| &r.window_us).collect::<Vec<_>>());
    let evals_per_s = window_evals * 1e6 / window_us;
    let evals_per_session = mean_of(
        reps.iter()
            .flat_map(|r| r.sessions.iter())
            .map(|s| s.quality.evals as f64),
    );
    [
        over_reps(|r| r.setup_s),
        evals_per_s,
        evals_per_s / evals_per_session,
        quiet_median(&reps.iter().map(|r| &r.rtt_us).collect::<Vec<_>>()),
        per_session(|s| s.start_ms),
        per_session(|s| s.end_ms),
        over_reps(|r| r.rss_peak_mb),
        over_reps(|r| mean_of(r.sessions.iter().map(|s| s.quality.best_clean))),
    ]
}

/// The per-layer numbers that come from a traced repetition (source T).
/// `untraced_evals_per_s` is the same work with tracing off; `cold` are
/// the same sessions run locally against no experience at all.
pub fn traced_layers(
    rep: &Rep,
    untraced_evals_per_s: f64,
    cold: &[Quality],
) -> Vec<(&'static str, f64)> {
    let counters: &LayerCounters = rep
        .counters
        .as_ref()
        .expect("traced repetition carries counters");
    let evals = rep.evals().max(1) as f64;
    let sessions = rep.session_count().max(1) as f64;
    let per_client = |f: fn(&crate::workload::ClientRun) -> &Vec<f32>| {
        rep.clients
            .iter()
            .flat_map(move |c| f(c).iter().map(|&v| v as f64))
    };
    let requests: f64 = ["Hello", "SessionStart", "Fetch", "Report", "SessionEnd"]
        .iter()
        .map(|kind| counters.owner_delta("harmony_net_requests_total", &format!("type=\"{kind}\"")))
        .sum();
    let hits = counters.owner_delta("harmony_net_warm_start_total", "result=\"hit\"");
    let misses = counters.owner_delta("harmony_net_warm_start_total", "result=\"miss\"");
    let traced_evals_per_s = end_to_end(&[&RepSummary::of(rep)])[1];
    let warm = mean_evals_to_1pct(rep.sessions().map(|s| &s.quality));
    let cold_mean = mean_evals_to_1pct(cold.iter());
    let bad: usize = rep.sessions().map(|s| s.quality.bad_iters).sum();
    let sessions_shipped = counters.owner_delta("harmony_net_peer_sessions_shipped_total", "");
    vec![
        (
            "client.fetch_p50_us",
            percentile_of(per_client(|c| &c.fetch_us), 0.50),
        ),
        (
            "client.report_p50_us",
            percentile_of(per_client(|c| &c.report_us), 0.50),
        ),
        (
            "client.iter_rtt_p99_us",
            percentile_of(per_client(|c| &c.rtt_us), 0.99),
        ),
        (
            "client.connect_hello_us",
            median_of(
                rep.clients
                    .iter()
                    .flat_map(|c| c.connect_us.iter().copied()),
            ),
        ),
        (
            "client.cpu_us_per_eval",
            counters.client_cpu_ns as f64 / 1e3 / evals,
        ),
        (
            "wire.bytes_per_eval",
            (counters.owner_delta("harmony_net_frame_bytes_total", "format=\"binary\"")
                + counters.client_bytes)
                / evals,
        ),
        (
            "reactor.wakeups_per_eval",
            counters.owner_delta("harmony_net_reactor_wakeups_total", "") / evals,
        ),
        (
            "reactor.pipelined_share",
            counters.owner_delta("harmony_net_reactor_pipelined_requests_total", "")
                / requests.max(1.0),
        ),
        (
            "server.cpu_us_per_eval",
            counters.owner_proc.cpu_ns as f64 / 1e3 / evals,
        ),
        (
            "server.cpu_us_per_session",
            counters.owner_proc.cpu_ns as f64 / 1e3 / sessions,
        ),
        (
            "server.ctx_switches_per_eval",
            counters.owner_proc.ctx_switches as f64 / evals,
        ),
        ("server.requests_per_eval", requests / evals),
        (
            "server.warm_start_hit_share",
            hits / (hits + misses).max(1.0),
        ),
        (
            "server.snapshot_swaps_per_session",
            counters.owner_delta("harmony_net_db_snapshot_swaps_total", "") / sessions,
        ),
        (
            "server.trace_overhead_pct",
            100.0 * (untraced_evals_per_s - traced_evals_per_s) / untraced_evals_per_s,
        ),
        ("kernel.evals_per_session", evals / sessions),
        ("kernel.bad_iter_share", bad as f64 / evals),
        ("kernel.evals_to_1pct", warm),
        ("kernel.cold_evals_to_1pct", cold_mean),
        (
            "kernel.warm_start_savings_pct",
            100.0 * (cold_mean - warm) / cold_mean.max(1.0),
        ),
        (
            // Frame payload bytes the ring owner encodes: its ships to
            // the successors, plus its replies to the client (what
            // `wire.bytes_per_eval` is on `rpc_hot`, ≈1 % of this).
            "cluster.ship_bytes_per_eval",
            if sessions_shipped > 0.0 {
                counters.owner_delta("harmony_net_frame_bytes_total", "format=\"binary\"") / evals
            } else {
                0.0
            },
        ),
        (
            "cluster.sessions_shipped_per_eval",
            sessions_shipped / evals,
        ),
        (
            "cluster.runs_shipped_per_session",
            counters.owner_delta("harmony_net_peer_runs_shipped_total", "") / sessions,
        ),
        (
            "cluster.ship_failures",
            counters.owner_delta("harmony_net_peer_ship_failures_total", ""),
        ),
        (
            "cluster.peer_cpu_us_per_eval",
            counters.peers_proc.cpu_ns as f64 / 1e3 / evals,
        ),
    ]
}
