//! Subcommand implementations, writing human-readable reports to any
//! `Write` sink (tests capture a buffer; `main` passes stdout).

use crate::args::{Command, ServeArgs, TuneArgs, WireChoice};
use crate::external::ExternalObjective;
use harmony::engine::{drive, drive_parallel, SearchEngine};
use harmony::history::{DataAnalyzer, ExperienceDb};
use harmony::kernel::SimplexOptions;
use harmony::prelude::*;
use harmony::sensitivity::Prioritizer;
use harmony::tuner::TrainingMode;
use harmony_engines::{registry, render_leaderboard, run_tournament, TournamentOptions};
use harmony_exec::{Executor, MemoCache};
use harmony_net::client::{Client, RetryPolicy};
use harmony_net::protocol::{SpaceSpec, WireSpan, WireTrace};
use harmony_net::server::{DaemonConfig, DaemonHandle, TuningDaemon};
use harmony_obs::trace::stage;
use harmony_space::{parse_rsl, Configuration};
use harmony_websim::WorkloadMix;
use std::fmt::Write as _;
use std::fs;
use std::io::Read as _;
use std::sync::atomic::{AtomicBool, Ordering};

/// Top-level error type for command execution.
#[derive(Debug)]
pub struct RunError(pub String);

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for RunError {}

fn fail(msg: impl Into<String>) -> RunError {
    RunError(msg.into())
}

/// Entries the in-memory memo cache can hold in `--jobs` runs. Each entry
/// is one measured configuration; tuning and sensitivity explorations are
/// orders of magnitude smaller, so in practice nothing is ever evicted.
const JOBS_CACHE_CAPACITY: usize = 65_536;

/// Execute a parsed command, returning the report text.
pub fn run(command: Command) -> Result<String, RunError> {
    let mut out = String::new();
    match command {
        Command::Help => out.push_str(&crate::args::usage()),
        Command::Space { rsl } => {
            let space = load_space(&rsl)?;
            let _ = writeln!(out, "space: {} parameters from {rsl}", space.len());
            for p in space.params() {
                let _ = writeln!(
                    out,
                    "  {:<24} [{}, {}] step {} default {}{}",
                    p.name(),
                    p.static_min(),
                    p.static_max(),
                    p.step(),
                    p.default(),
                    if p.is_restricted() {
                        "  (restricted)"
                    } else {
                        ""
                    },
                );
            }
            let _ = writeln!(out, "unconstrained size: {}", space.unconstrained_size());
            if space.is_restricted() {
                match space.restricted_size(50_000_000) {
                    Some(n) => {
                        let _ = writeln!(out, "restricted size: {n}");
                    }
                    None => {
                        let _ = writeln!(out, "restricted size: > 50,000,000 (not enumerated)");
                    }
                }
            }
        }
        Command::Db { path } => {
            let db = ExperienceDb::load(&path).map_err(|e| fail(e.to_string()))?;
            let _ = writeln!(out, "experience database: {} run(s) in {path}", db.len());
            for (i, run) in db.runs().iter().enumerate() {
                let best = run
                    .best()
                    .map(|r| format!("best {:.2} at {:?}", r.performance, r.values))
                    .unwrap_or_else(|| "no records".into());
                let _ = writeln!(
                    out,
                    "  #{i} {:<16} {} records; {best}; characteristics {:?}",
                    run.label,
                    run.records.len(),
                    run.characteristics,
                );
            }
        }
        Command::Sensitivity(args) => {
            let space = load_space(&args.rsl)?;
            let mut prioritizer = Prioritizer::new(space.clone()).with_repeats(args.repeats);
            if let Some(n) = args.samples {
                prioritizer = prioritizer.with_max_samples(n);
            }
            let obj = ExternalObjective::new(space.clone(), args.measure);
            // Probe with the defaults so a broken measurement command is
            // named as such before the sweep runs.
            let defaults = Configuration::new(space.params().iter().map(|p| p.default()).collect());
            obj.measure_once(&defaults)
                .map_err(|e| fail(format!("probe at default configuration {defaults}: {e}")))?;
            let cache = (args.jobs > 1).then(|| MemoCache::new(JOBS_CACHE_CAPACITY));
            let report = prioritizer.try_analyze_with(
                &|cfg: &Configuration| measure_in_batch(&obj, cfg),
                &Executor::new(args.jobs),
                cache.as_ref(),
            )?;
            let _ = writeln!(out, "sensitivity ({} explorations):", report.explorations());
            for e in report.ranked() {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>10.3}   best value {}",
                    e.name, e.sensitivity, e.best_value
                );
            }
        }
        Command::Tune(args) => match &args.remote {
            Some(addr) => tune_remote(&mut out, &args, addr)?,
            None => tune_with_engine(&mut out, &args)?,
        },
        Command::Tournament(args) => {
            let opts = TournamentOptions {
                budget: args.budget,
                candidates: args.candidates,
                seed: args.seed,
                mixes: args
                    .mixes
                    .iter()
                    .map(|m| mix_by_name(m))
                    .collect::<Result<_, _>>()?,
            };
            let results = run_tournament(&opts, &Executor::new(args.jobs));
            let out_path = &args.out;
            let leaderboard = render_leaderboard(&results, &opts);
            if let Some(parent) = std::path::Path::new(out_path).parent() {
                if !parent.as_os_str().is_empty() {
                    fs::create_dir_all(parent)
                        .map_err(|e| fail(format!("cannot create {}: {e}", parent.display())))?;
                }
            }
            fs::write(out_path, &leaderboard)
                .map_err(|e| fail(format!("cannot write {out_path}: {e}")))?;
            out.push_str(&leaderboard);
            let _ = writeln!(out, "\nleaderboard written to {out_path}");
        }
        Command::Stats { addr } => {
            let mut client = Client::connect(&addr)
                .map_err(|e| fail(format!("cannot reach daemon at {addr}: {e}")))?;
            let text = client.stats().map_err(|e| fail(e.to_string()))?;
            out.push_str(&text);
        }
        Command::Trace { addr } => {
            let mut client = Client::connect(&addr)
                .map_err(|e| fail(format!("cannot reach daemon at {addr}: {e}")))?;
            let traces = client.trace_dump().map_err(|e| fail(e.to_string()))?;
            out.push_str(&render_trace_report(&traces));
        }
        Command::Serve(args) => {
            return serve(&args, |handle| {
                crate::signals::install();
                eprintln!(
                    "harmony-cli: tuning daemon listening on {} \
                         (stdin end-of-file or SIGTERM stops it)",
                    handle.addr()
                );
                // Park until the operator closes stdin or signals.
                // Stdin is consumed on its own thread so a signal
                // can interrupt the wait even mid-read.
                let stdin_done = std::sync::Arc::new(AtomicBool::new(false));
                {
                    let stdin_done = std::sync::Arc::clone(&stdin_done);
                    std::thread::spawn(move || {
                        let mut sink = [0u8; 256];
                        let mut stdin = std::io::stdin().lock();
                        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
                        stdin_done.store(true, Ordering::SeqCst);
                    });
                }
                while !stdin_done.load(Ordering::SeqCst) && !crate::signals::termination_requested()
                {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                if crate::signals::termination_requested() {
                    eprintln!("harmony-cli: termination signal received, draining");
                    // Refuse new work right away; `serve` follows up
                    // with the full shutdown (park sessions, flush
                    // the journal) once we return.
                    handle.drain();
                }
            });
        }
    }
    Ok(out)
}

fn mix_by_name(name: &str) -> Result<WorkloadMix, RunError> {
    match name {
        "browsing" => Ok(WorkloadMix::browsing()),
        "shopping" => Ok(WorkloadMix::shopping()),
        "ordering" => Ok(WorkloadMix::ordering()),
        other => Err(fail(format!(
            "unknown mix {other:?}; available mixes: browsing, shopping, ordering"
        ))),
    }
}

/// Tune in-process with a [`harmony_engines`] search engine — the paper's
/// simplex kernel unless `--engine` names another — measuring via the
/// external command.
///
/// Each exploration runs through [`ExternalObjective::measure_once`], so a
/// crashed command, a non-zero exit, or unparseable output stops the run
/// with the underlying error — it is never silently folded into the
/// search as a performance value.
///
/// With `jobs > 1`, batchable phases of the search (an initial simplex,
/// vertex refreshes) measure on that many worker threads, and every
/// measurement is memoized per exact configuration so revisited points
/// cost nothing; for a deterministic measure command the outcome is
/// identical to the sequential run.
///
/// With `--characteristics` and a `--db`, the classified prior run
/// warm-starts the engine through [`SearchEngine::warm_start`], and the
/// finished run's records are saved back.
fn tune_with_engine(out: &mut String, args: &TuneArgs) -> Result<(), RunError> {
    let space = load_space(&args.rsl)?;
    let mut database = match &args.db {
        Some(path) if fs::metadata(path).is_ok() => {
            ExperienceDb::load(path).map_err(|e| fail(e.to_string()))?
        }
        _ => ExperienceDb::new(),
    };
    let obj = ExternalObjective::new(space.clone(), args.measure.clone());
    let name = args.engine.as_deref().unwrap_or("simplex");
    let spec = registry::lookup(name).map_err(|e| fail(e.to_string()))?;
    let mut engine: Box<dyn SearchEngine> = if name == "simplex" && args.original {
        // `--original` is only meaningful for the simplex engine (the
        // parser rejects it for the others): swap the improved defaults
        // for the paper's original initial-simplex strategy.
        Box::new(
            Tuner::new(
                space.clone(),
                TuningOptions::original().with_max_iterations(args.iterations),
            )
            .session_with(
                SimplexOptions::default(),
                TrainingMode::Replay(registry::WARM_REPLAY_BUDGET),
            ),
        )
    } else {
        // The registry's fixed seed keeps repeated invocations exploring
        // identically — and matches what a daemon builds for the same
        // name, so `--remote --engine` trajectories line up with local
        // ones. Operators wanting fresh trajectories vary the measured
        // system, not the search.
        spec.build(space.clone(), args.iterations, registry::DEFAULT_SEED)
    };
    // A match recorded over a space of another arity cannot seed this
    // search: it is skipped, and the run tunes cold.
    let prior = if args.characteristics.is_empty() {
        None
    } else {
        DataAnalyzer::new()
            .select(&database, &args.characteristics)
            .filter(|run| run.fits(&space))
    };
    if let Some(history) = &prior {
        let _ = writeln!(out, "training from prior run {:?}", history.label);
        engine.warm_start(history);
    }
    let outcome = if args.jobs > 1 {
        let cache = MemoCache::new(JOBS_CACHE_CAPACITY);
        drive_parallel(
            engine.as_mut(),
            &|cfg: &Configuration| measure_in_batch(&obj, cfg),
            &Executor::new(args.jobs),
            Some(&cache),
        )?
    } else {
        let mut explored = 0;
        drive(engine.as_mut(), |cfg| {
            explored += 1;
            measure_exploration(&obj, cfg, explored - 1)
        })?
    };

    if let Some(name) = &args.engine {
        let _ = writeln!(out, "engine: {name}");
    }
    let _ = writeln!(out, "explored {} configurations", outcome.trace.len());
    let _ = writeln!(out, "best performance: {:.4}", outcome.best_performance);
    for (p, &v) in space
        .params()
        .iter()
        .zip(outcome.best_configuration.values())
    {
        let _ = writeln!(out, "  {:<24} = {v}", p.name());
    }
    let _ = writeln!(
        out,
        "convergence at iteration {}; worst dip {:.4}; converged: {}",
        outcome.report.convergence_time, outcome.report.worst_performance, outcome.converged
    );

    if let Some(path) = &args.db {
        database.add_run(outcome.to_history(args.label.clone(), args.characteristics.clone()));
        database.save(path).map_err(|e| fail(e.to_string()))?;
        let _ = writeln!(out, "experience saved to {path} ({} runs)", database.len());
    }
    Ok(())
}

/// Tune against a remote daemon: the server proposes configurations and
/// owns the experience database; this side only measures.
///
/// `--retry` and `--deadline` configure the client's resilience: requests
/// that fail retryably (connection loss, deadline expiry, a draining
/// daemon) are retried with jittered backoff, reconnecting and resuming
/// the session in place.
///
/// With `--trace`, the session becomes one distributed trace: requests
/// carry its context to the daemon, and each measurement runs through an
/// executor under an `eval` span so the daemon's flight recorder sees
/// queue-wait/run attribution alongside its own serve-side spans. The
/// proposals and the outcome are bit-identical with tracing on or off.
///
/// `addr` may name several endpoints separated by commas; the first is
/// dialled preferentially and the rest are failover candidates the client
/// rotates through (and follows cluster redirects onto) when a daemon
/// dies mid-session.
///
/// With `--engine`, the registry name travels in the `SessionStart` and the
/// daemon builds and drives that engine server-side, so a remote run
/// explores the identical trajectory a local `tune --engine` would.
fn tune_remote(out: &mut String, args: &TuneArgs, addr: &str) -> Result<(), RunError> {
    let rsl = &args.rsl;
    let text = fs::read_to_string(rsl).map_err(|e| fail(format!("cannot read {rsl}: {e}")))?;
    let mut endpoints = addr.split(',').filter(|a| !a.is_empty());
    let first = endpoints.next().unwrap_or(addr);
    let mut builder = Client::builder(first).tracing(args.trace);
    for fallback in endpoints {
        builder = builder.endpoint(fallback);
    }
    if args.wire == Some(WireChoice::Json) {
        // Pin the handshake at protocol v2: the daemon never switches
        // the connection to binary framing. `binary` (and the default)
        // negotiate the newest version and fall back on old daemons.
        builder = builder.max_protocol_version(2);
    }
    if let Some(n) = args.retry {
        builder = builder.retry(RetryPolicy::default().with_max_retries(n));
    }
    if let Some(ms) = args.deadline_ms {
        builder = builder.request_deadline(std::time::Duration::from_millis(ms));
    }
    let mut client = builder
        .connect()
        .map_err(|e| fail(format!("cannot reach daemon at {addr}: {e}")))?;
    let started = client
        .start_session_with(
            SpaceSpec::Rsl(text),
            &args.label,
            args.characteristics.clone(),
            Some(args.iterations),
            args.engine.clone(),
        )
        .map_err(|e| fail(e.to_string()))?;
    if let Some(name) = &args.engine {
        let _ = writeln!(out, "engine: {name} (server-side)");
    }
    if let Some(prior) = &started.trained_from {
        let _ = writeln!(
            out,
            "training from prior run {prior:?} ({} virtual iterations, server-side)",
            started.training_iterations
        );
    }
    // The server's parse of the RSL is authoritative; use its space for
    // the environment-variable names.
    let obj = ExternalObjective::new(started.space.clone(), args.measure.clone());
    let executor = Executor::new(1);
    let mut explored = 0usize;
    while let Some(proposal) = client.fetch().map_err(|e| fail(e.to_string()))? {
        let performance = if args.trace {
            // Route the measurement through the executor under an `eval`
            // span, so queue-wait/run attribution lands in the trace.
            // Executor::new(1) is exactly the sequential loop — the
            // measured value is the same one the bare path produces.
            let batch = std::slice::from_ref(&proposal.values);
            client
                .traced(stage::EVAL, "measure", || {
                    let measure = |cfg: &Configuration| measure_in_batch(&obj, cfg);
                    executor.evaluate_batch(batch, &measure).remove(0)
                })
                .map_err(|e| fail(format!("exploration {}: {e}", proposal.iteration + 1)))?
        } else {
            measure_exploration(&obj, &proposal.values, proposal.iteration)?
        };
        client
            .report(performance)
            .map_err(|e| fail(e.to_string()))?;
        explored += 1;
    }
    let summary = client.end_session().map_err(|e| fail(e.to_string()))?;

    let _ = writeln!(out, "explored {explored} configurations (daemon at {addr})");
    let _ = writeln!(out, "best performance: {:.4}", summary.performance);
    for (p, &v) in started.space.params().iter().zip(summary.best.values()) {
        let _ = writeln!(out, "  {:<24} = {v}", p.name());
    }
    let _ = writeln!(
        out,
        "live iterations: {}; converged: {}; run recorded server-side as {:?}",
        summary.iterations, summary.converged, args.label
    );
    Ok(())
}

fn measure_exploration(
    obj: &ExternalObjective,
    cfg: &Configuration,
    iteration: usize,
) -> Result<f64, RunError> {
    obj.measure_once(cfg)
        .map_err(|e| fail(format!("exploration {} at {cfg}: {e}", iteration + 1)))
}

/// [`ExternalObjective::measure_once`] inside an [`Executor`] batch: an
/// error names the configuration, since a batch item has no exploration
/// number of its own.
fn measure_in_batch(obj: &ExternalObjective, cfg: &Configuration) -> Result<f64, RunError> {
    obj.measure_once(cfg)
        .map_err(|e| fail(format!("measurement at {cfg}: {e}")))
}

/// Character width of a waterfall bar (the full trace duration).
const WATERFALL_WIDTH: usize = 32;

/// Render a daemon's flight-recorder dump: one waterfall per trace (span
/// tree in depth-first order, each span a bar positioned inside its
/// trace's extent) followed by a cross-trace per-stage latency
/// attribution table. Deterministic for a given dump: traces and spans
/// are rendered in the recorder's stable order (start time, then id).
fn render_trace_report(traces: &[WireTrace]) -> String {
    let mut out = String::new();
    if traces.is_empty() {
        out.push_str("flight recorder is empty (no traces retained yet)\n");
        return out;
    }
    let _ = writeln!(out, "flight recorder: {} trace(s)", traces.len());
    for trace in traces {
        out.push('\n');
        render_waterfall(&mut out, trace);
    }
    out.push('\n');
    render_stage_table(&mut out, traces);
    out
}

fn span_extent(spans: &[WireSpan]) -> (u64, u64) {
    let start = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    let end = spans.iter().map(|s| s.end_us).max().unwrap_or(start);
    (start, end.max(start))
}

fn render_waterfall(out: &mut String, trace: &WireTrace) {
    let (start, end) = span_extent(&trace.spans);
    let total = (end - start).max(1);
    let _ = writeln!(
        out,
        "trace {:016x}  {}  {} span(s)  {}",
        trace.trace_id,
        if trace.complete {
            "complete"
        } else {
            "incomplete"
        },
        trace.spans.len(),
        fmt_us(end - start),
    );
    // Parent → children, preserving the dump's (start, id) order.
    let ids: std::collections::HashSet<u64> = trace.spans.iter().map(|s| s.id).collect();
    let mut children: std::collections::HashMap<u64, Vec<&WireSpan>> =
        std::collections::HashMap::new();
    let mut roots: Vec<&WireSpan> = Vec::new();
    for span in &trace.spans {
        if span.parent != 0 && ids.contains(&span.parent) && span.parent != span.id {
            children.entry(span.parent).or_default().push(span);
        } else {
            roots.push(span);
        }
    }
    // Depth-first with an explicit stack (a span tree is shallow, but a
    // hostile dump shouldn't recurse unboundedly).
    let mut stack: Vec<(&WireSpan, usize)> = roots.iter().rev().map(|s| (*s, 0)).collect();
    let mut visited = std::collections::HashSet::new();
    while let Some((span, depth)) = stack.pop() {
        if !visited.insert(span.id) {
            continue; // defensive: a malformed dump with a cycle
        }
        let label = if span.detail.is_empty() {
            span.stage.clone()
        } else {
            format!("{} [{}]", span.stage, span.detail)
        };
        let indent = "  ".repeat(depth + 1);
        let offset =
            ((span.start_us.saturating_sub(start)) as usize * WATERFALL_WIDTH) / total as usize;
        let len = (((span.end_us.saturating_sub(span.start_us)) as usize * WATERFALL_WIDTH)
            / total as usize)
            .max(1);
        let offset = offset.min(WATERFALL_WIDTH.saturating_sub(1));
        let len = len.min(WATERFALL_WIDTH - offset);
        let mut bar = String::with_capacity(WATERFALL_WIDTH);
        bar.push_str(&" ".repeat(offset));
        bar.push_str(&"#".repeat(len));
        bar.push_str(&" ".repeat(WATERFALL_WIDTH - offset - len));
        let _ = writeln!(
            out,
            "{:<36} {:>10} |{bar}|{}",
            format!("{indent}{label}"),
            fmt_us(span.end_us.saturating_sub(span.start_us)),
            if span.error { "  !error" } else { "" },
        );
        if let Some(kids) = children.get(&span.id) {
            for kid in kids.iter().rev() {
                stack.push((kid, depth + 1));
            }
        }
    }
}

fn render_stage_table(out: &mut String, traces: &[WireTrace]) {
    // stage → sorted durations (µs).
    let mut stages: std::collections::HashMap<&str, Vec<u64>> = std::collections::HashMap::new();
    for trace in traces {
        for span in &trace.spans {
            stages
                .entry(span.stage.as_str())
                .or_default()
                .push(span.end_us.saturating_sub(span.start_us));
        }
    }
    let mut rows: Vec<(&str, Vec<u64>, u64)> = stages
        .into_iter()
        .map(|(stage, mut durations)| {
            durations.sort_unstable();
            let total = durations.iter().sum();
            (stage, durations, total)
        })
        .collect();
    // Heaviest stages first; name breaks ties so the table is stable.
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    let _ = writeln!(
        out,
        "stage attribution (all traces):\n  {:<14} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50", "p95", "max", "total"
    );
    for (stage, durations, total) in rows {
        let _ = writeln!(
            out,
            "  {:<14} {:>6} {:>10} {:>10} {:>10} {:>10}",
            stage,
            durations.len(),
            fmt_us(percentile(&durations, 50)),
            fmt_us(percentile(&durations, 95)),
            fmt_us(*durations.last().unwrap_or(&0)),
            fmt_us(total),
        );
    }
}

/// Nearest-rank percentile of an already-sorted set of durations.
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) * p) / 100]
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{us}us")
    }
}

/// Rotated event-log files `serve` keeps when `--log-keep` is unset.
const DEFAULT_LOG_KEEP: usize = 3;

/// Start the tuning daemon, hand the handle to `wait`, and shut down when
/// it returns. `main` waits for stdin end-of-file; tests drive sessions.
///
/// `--log-json` configures the structured JSONL event sink (session
/// starts, recorded runs, persistence failures, …), optionally
/// size-rotated (always on a line boundary, so no event is torn across
/// files). `--no-trace` skips enabling the distributed-tracing flight
/// recorder.
///
/// With `--peer`, the daemon joins a cluster: its own identity on the
/// ring is `--listen` exactly as the peers spell it, and `--replicate`
/// (default 1, owner-only) controls how many ring members hold each run
/// and session snapshot. Configuration combinations — wal-without-db,
/// compaction-without-db, a zero connection cap, cluster shape — are
/// validated by [`DaemonConfig::builder`], so embedders and the CLI share
/// one rulebook.
pub fn serve(args: &ServeArgs, wait: impl FnOnce(&DaemonHandle)) -> Result<String, RunError> {
    if let Some(path) = &args.log_json {
        match args.log_rotate_bytes {
            Some(bytes) => harmony_obs::event::log_to_file_rotating(
                path,
                bytes,
                args.log_keep.unwrap_or(DEFAULT_LOG_KEEP),
            ),
            None => harmony_obs::event::log_to_file(path),
        }
        .map_err(|e| fail(format!("cannot open event log {path}: {e}")))?;
    }
    let rsl = &args.rsl;
    let space = load_space(rsl)?;
    let mut builder = DaemonConfig::builder()
        .listen(&args.listen)
        .tracing(!args.no_trace);
    if let Some(path) = &args.db {
        builder = builder.db_path(path);
    }
    if let Some(path) = &args.wal {
        builder = builder.wal_path(path);
    }
    if let Some(n) = args.compact_every {
        builder = builder.compact_every(n);
    }
    if let Some(n) = args.max_connections {
        builder = builder.max_connections(n);
    }
    if !args.peers.is_empty() {
        builder = builder.cluster(
            &args.listen,
            args.peers.clone(),
            args.replicate.unwrap_or(1),
        );
    }
    let mut config = builder.build().map_err(|e| fail(format!("serve: {e}")))?;
    config.server_name = format!("harmony-cli {}", env!("CARGO_PKG_VERSION"));
    if let Some(n) = args.iterations {
        config.tuning = config.tuning.with_max_iterations(n);
    }
    let handle = TuningDaemon::start(config).map_err(|e| fail(e.to_string()))?;
    eprintln!("harmony-cli: serving {} parameters from {rsl}", space.len());
    wait(&handle);
    let completed = handle.completed_sessions();
    let runs = handle.db_runs();
    handle.shutdown();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "daemon stopped: {completed} session(s) completed, {runs} run(s) in the experience database"
    );
    Ok(out)
}

fn load_space(path: &str) -> Result<harmony_space::ParameterSpace, RunError> {
    let text = fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))?;
    parse_rsl(&text).map_err(|e| fail(format!("cannot parse {path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn write_rsl(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("harmony-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        fs::write(
            &path,
            "{ harmonyBundle B { int {1 8 1} }}\n{ harmonyBundle C { int {1 9-$B 1} }}\n",
        )
        .unwrap();
        path
    }

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// `serve`'s arguments as the parser builds them, on an ephemeral port.
    fn serve_args(rsl: &std::path::Path, flags: &[&str]) -> ServeArgs {
        let mut args = vec!["serve", rsl.to_str().unwrap(), "--listen", "127.0.0.1:0"];
        args.extend_from_slice(flags);
        match parse_args(&sv(&args)).unwrap().command {
            Command::Serve(args) => args,
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn space_report() {
        let rsl = write_rsl("space.rsl");
        let cli = parse_args(&sv(&["space", rsl.to_str().unwrap()])).unwrap();
        let out = run(cli.command).unwrap();
        assert!(out.contains("2 parameters"), "{out}");
        assert!(out.contains("unconstrained size: 64"), "{out}");
        assert!(out.contains("restricted size: 36"), "{out}");
        assert!(out.contains("(restricted)"), "{out}");
    }

    #[test]
    fn missing_rsl_is_a_clean_error() {
        let cli = parse_args(&sv(&["space", "/nonexistent.rsl"])).unwrap();
        let err = run(cli.command).unwrap_err();
        assert!(err.0.contains("cannot read"), "{err}");
    }

    #[test]
    fn tune_an_external_shell_command_and_persist_experience() {
        let rsl = write_rsl("tune.rsl");
        let db = std::env::temp_dir()
            .join("harmony-cli-tests")
            .join("exp.json");
        fs::remove_file(&db).ok();
        // Best at B=3, C=4 (D = 10-B-C = 3).
        let cmd = "echo $((100 - (HARMONY_B-3)*(HARMONY_B-3) - (HARMONY_C-4)*(HARMONY_C-4)))";
        let cli = parse_args(&sv(&[
            "tune",
            rsl.to_str().unwrap(),
            "--iterations",
            "50",
            "--db",
            db.to_str().unwrap(),
            "--label",
            "shop",
            "--characteristics",
            "0.2,0.8",
            "--",
            "sh",
            "-c",
            cmd,
        ]))
        .unwrap();
        let out = run(cli.command).unwrap();
        assert!(out.contains("best performance: 100"), "{out}");
        assert!(out.contains("experience saved"), "{out}");

        // Second run classifies against the saved experience.
        let cli = parse_args(&sv(&[
            "tune",
            rsl.to_str().unwrap(),
            "--iterations",
            "30",
            "--db",
            db.to_str().unwrap(),
            "--label",
            "shop-2",
            "--characteristics",
            "0.21,0.79",
            "--",
            "sh",
            "-c",
            cmd,
        ]))
        .unwrap();
        let out = run(cli.command).unwrap();
        assert!(out.contains("training from prior run \"shop\""), "{out}");

        // And the db report shows both runs.
        let cli = parse_args(&sv(&["db", db.to_str().unwrap()])).unwrap();
        let out = run(cli.command).unwrap();
        assert!(out.contains("2 run(s)"), "{out}");
        fs::remove_file(&db).ok();
    }

    #[test]
    fn tune_with_jobs_matches_sequential_tuning() {
        let rsl = write_rsl("jobs.rsl");
        let cmd = "echo $((100 - (HARMONY_B-3)*(HARMONY_B-3) - (HARMONY_C-4)*(HARMONY_C-4)))";
        let tune = |jobs: &str| {
            let cli = parse_args(&sv(&[
                "tune",
                rsl.to_str().unwrap(),
                "--iterations",
                "40",
                "--jobs",
                jobs,
                "--",
                "sh",
                "-c",
                cmd,
            ]))
            .unwrap();
            run(cli.command).unwrap()
        };
        let seq = tune("1");
        let par = tune("4");
        // Deterministic measure command → identical report, line for line.
        assert_eq!(par, seq);
        assert!(par.contains("best performance: 100"), "{par}");
    }

    #[test]
    fn tune_with_jobs_surfaces_measurement_failures() {
        let rsl = write_rsl("jobs-fail.rsl");
        let cli = parse_args(&sv(&[
            "tune",
            rsl.to_str().unwrap(),
            "--jobs",
            "4",
            "--",
            "sh",
            "-c",
            "echo kaput >&2; exit 3",
        ]))
        .unwrap();
        let err = run(cli.command).unwrap_err();
        assert!(err.0.contains("measurement at"), "{err}");
        assert!(err.0.contains("measurement command failed"), "{err}");
        assert!(err.0.contains("kaput"), "{err}");
    }

    #[test]
    fn tune_with_jobs_fails_where_the_sequential_run_fails() {
        let rsl = write_rsl("jobs-first-failure.rsl");
        let tune = |jobs: &str, cmd: &str| {
            let cli = parse_args(&sv(&[
                "tune",
                rsl.to_str().unwrap(),
                "--jobs",
                jobs,
                "--",
                "sh",
                "-c",
                cmd,
            ]))
            .unwrap();
            run(cli.command).unwrap_err().0
        };
        let err = tune("1", "exit 3");
        let first = err
            .strip_prefix("exploration 1 at ")
            .and_then(|rest| rest.split(':').next())
            .unwrap_or_else(|| panic!("{err}"))
            .to_string();
        // Every configuration fails, and the one the sequential run meets
        // first fails last in time.
        let values: Vec<&str> = first.trim_matches(['[', ']']).split(", ").collect();
        let cmd = format!(
            "[ \"$HARMONY_B,$HARMONY_C\" = \"{}\" ] && sleep 0.5; exit 3",
            values.join(",")
        );
        let err = tune("4", &cmd);
        assert!(
            err.starts_with(&format!("measurement at {first}: ")),
            "{err}"
        );
    }

    #[test]
    fn sensitivity_fails_on_the_first_failure_in_sweep_order() {
        // Only B = 4 (the default) measures, so the defaults probe and the
        // C sweep pass; the B sweep fails everywhere else, and its first
        // failure, B = 1, fails last in time.
        let rsl = write_rsl("sens-fail.rsl");
        for jobs in ["1", "4"] {
            let cli = parse_args(&sv(&[
                "sensitivity",
                rsl.to_str().unwrap(),
                "--jobs",
                jobs,
                "--",
                "sh",
                "-c",
                "[ $HARMONY_B = 4 ] && echo 1 && exit 0; [ $HARMONY_B = 1 ] && sleep 0.5; exit 3",
            ]))
            .unwrap();
            let err = run(cli.command).unwrap_err();
            assert!(err.0.starts_with("measurement at [1, 1]: "), "{err}");
        }
    }

    #[test]
    fn tune_with_engine_reports_and_warm_starts() {
        let rsl = write_rsl("engine.rsl");
        let db = std::env::temp_dir()
            .join("harmony-cli-tests")
            .join("engine-exp.json");
        fs::remove_file(&db).ok();
        // Best at B=3, C=4 (the space caps C at 9-B).
        let cmd = "echo $((100 - (HARMONY_B-3)*(HARMONY_B-3) - (HARMONY_C-4)*(HARMONY_C-4)))";
        let tune = |engine: &str, label: &str, chars: &str| {
            let cli = parse_args(&sv(&[
                "tune",
                rsl.to_str().unwrap(),
                "--iterations",
                "60",
                "--engine",
                engine,
                "--db",
                db.to_str().unwrap(),
                "--label",
                label,
                "--characteristics",
                chars,
                "--",
                "sh",
                "-c",
                cmd,
            ]))
            .unwrap();
            run(cli.command).unwrap()
        };
        let out = tune("divide-diverge", "first", "0.2,0.8");
        assert!(out.contains("engine: divide-diverge"), "{out}");
        assert!(out.contains("best performance: 100"), "{out}");
        assert!(out.contains("experience saved"), "{out}");

        // A close-by second run classifies and warm-starts the engine.
        let out = tune("tuneful", "second", "0.21,0.79");
        assert!(out.contains("training from prior run \"first\""), "{out}");
        assert!(out.contains("best performance: 100"), "{out}");
        fs::remove_file(&db).ok();
    }

    #[test]
    fn tune_without_engine_flag_is_the_simplex_engine() {
        let rsl = write_rsl("default-engine.rsl");
        let cmd = "echo $((100 - (HARMONY_B-3)*(HARMONY_B-3) - (HARMONY_C-4)*(HARMONY_C-4)))";
        // One database per spelling, so both see the same history: a
        // cold run first, then one warm-started from the run just saved.
        let db_for = |name: &str| {
            let db = std::env::temp_dir().join("harmony-cli-tests").join(name);
            fs::remove_file(&db).ok();
            db
        };
        let (plain_db, named_db) = (db_for("default-plain.json"), db_for("default-named.json"));
        let tune = |engine: &[&str], db: &std::path::Path, label: &str, chars: &str| {
            let mut args = vec!["tune", rsl.to_str().unwrap()];
            args.extend_from_slice(engine);
            args.extend_from_slice(&[
                "--iterations",
                "40",
                "--db",
                db.to_str().unwrap(),
                "--label",
                label,
                "--characteristics",
                chars,
                "--",
                "sh",
                "-c",
                cmd,
            ]);
            run(parse_args(&sv(&args)).unwrap().command)
                .unwrap()
                .replace(db.to_str().unwrap(), "<db>")
        };
        for (label, chars) in [("cold", "0.2,0.8"), ("warm", "0.21,0.79")] {
            let plain = tune(&[], &plain_db, label, chars);
            let named = tune(&["--engine", "simplex"], &named_db, label, chars);
            assert_eq!(
                plain.contains("training from prior run \"cold\""),
                label == "warm",
                "{plain}"
            );
            assert!(!plain.contains("engine:"), "{plain}");
            // The only difference is the line naming the engine.
            assert_eq!(named.replacen("engine: simplex\n", "", 1), plain);
            assert!(named.contains("engine: simplex\n"), "{named}");
        }
        assert_eq!(
            fs::read_to_string(&plain_db).unwrap(),
            fs::read_to_string(&named_db).unwrap()
        );
        fs::remove_file(&plain_db).ok();
        fs::remove_file(&named_db).ok();
    }

    #[test]
    fn tune_skips_a_prior_run_over_a_space_of_another_arity() {
        let dir = std::env::temp_dir().join("harmony-cli-tests");
        let one = dir.join("arity-1.rsl");
        fs::write(&one, "{ harmonyBundle B { int {1 8 1} }}\n").unwrap();
        let two = write_rsl("arity-2.rsl");
        let prior_db = dir.join("arity-prior.json");
        fs::remove_file(&prior_db).ok();
        let tune = |rsl: &std::path::Path, db: &std::path::Path, engine: &[&str]| {
            let mut args = vec!["tune", rsl.to_str().unwrap()];
            args.extend_from_slice(engine);
            args.extend_from_slice(&[
                "--iterations",
                "20",
                "--db",
                db.to_str().unwrap(),
                "--characteristics",
                "0.5,0.5",
                "--",
                "sh",
                "-c",
                "echo $((100 - (HARMONY_B-3)*(HARMONY_B-3)))",
            ]);
            run(parse_args(&sv(&args)).unwrap().command)
        };
        tune(&one, &prior_db, &[]).unwrap();
        // The only run on record, at the same characteristics, was
        // recorded over one parameter: every engine tunes the
        // two-parameter space cold instead of seeding from it.
        let db = dir.join("arity-db.json");
        let mut engines = vec![vec![], vec!["--original"]];
        engines.extend(
            harmony_engines::ENGINE_NAMES
                .iter()
                .map(|&name| vec!["--engine", name]),
        );
        for engine in &engines {
            fs::copy(&prior_db, &db).unwrap();
            let out = tune(&two, &db, engine).unwrap();
            assert!(
                !out.contains("training from prior run"),
                "{engine:?}: {out}"
            );
            assert!(out.contains("experience saved"), "{engine:?}: {out}");
        }
        fs::remove_file(&prior_db).ok();
        fs::remove_file(&db).ok();
    }

    #[test]
    fn tune_with_engine_and_jobs_matches_sequential() {
        let rsl = write_rsl("engine-jobs.rsl");
        let cmd = "echo $((100 - (HARMONY_B-3)*(HARMONY_B-3) - (HARMONY_C-4)*(HARMONY_C-4)))";
        let tune = |jobs: &str| {
            let cli = parse_args(&sv(&[
                "tune",
                rsl.to_str().unwrap(),
                "--iterations",
                "40",
                "--engine",
                "divide-diverge",
                "--jobs",
                jobs,
                "--",
                "sh",
                "-c",
                cmd,
            ]))
            .unwrap();
            run(cli.command).unwrap()
        };
        let seq = tune("1");
        let par = tune("4");
        assert_eq!(par, seq);
    }

    #[test]
    fn tournament_writes_a_deterministic_leaderboard() {
        let out_path = std::env::temp_dir()
            .join("harmony-cli-tests")
            .join("leaderboard")
            .join("lb.txt");
        fs::remove_file(&out_path).ok();
        let race = || {
            let cli = parse_args(&sv(&[
                "tournament",
                "--budget",
                "20",
                "--candidates",
                "2",
                "--mixes",
                "browsing",
                "--out",
                out_path.to_str().unwrap(),
            ]))
            .unwrap();
            run(cli.command).unwrap()
        };
        let report = race();
        assert!(report.contains("## mix=browsing"), "{report}");
        for name in harmony_engines::ENGINE_NAMES {
            assert!(report.contains(name), "{report}");
        }
        let first = fs::read_to_string(&out_path).unwrap();
        race();
        let second = fs::read_to_string(&out_path).unwrap();
        assert_eq!(first, second, "same seed must render byte-identically");
        fs::remove_file(&out_path).ok();
    }

    #[test]
    fn sensitivity_with_jobs_matches_sequential_analysis() {
        let rsl = write_rsl("sens-jobs.rsl");
        let analyze = |jobs: &str| {
            let cli = parse_args(&sv(&[
                "sensitivity",
                rsl.to_str().unwrap(),
                "--jobs",
                jobs,
                "--",
                "sh",
                "-c",
                "echo $((HARMONY_B * 10 + HARMONY_C))",
            ]))
            .unwrap();
            run(cli.command).unwrap()
        };
        assert_eq!(analyze("3"), analyze("1"));
    }

    #[test]
    fn sensitivity_on_external_command() {
        let rsl = write_rsl("sens.rsl");
        let cli = parse_args(&sv(&[
            "sensitivity",
            rsl.to_str().unwrap(),
            "--repeats",
            "1",
            "--",
            "sh",
            "-c",
            "echo $((HARMONY_B * 10 + HARMONY_C))",
        ]))
        .unwrap();
        let out = run(cli.command).unwrap();
        // B has 10x the leverage of C: it must rank first.
        let b_pos = out.find("B ").expect("B listed");
        let c_pos = out.find("C ").expect("C listed");
        assert!(b_pos < c_pos, "{out}");
    }

    #[test]
    fn help_is_usage() {
        let out = run(Command::Help).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn sensitivity_probes_the_command_before_analyzing() {
        let rsl = write_rsl("sens-fail.rsl");
        let cli = parse_args(&sv(&[
            "sensitivity",
            rsl.to_str().unwrap(),
            "--",
            "sh",
            "-c",
            "exit 7",
        ]))
        .unwrap();
        let err = run(cli.command).unwrap_err();
        assert!(err.0.contains("probe at default configuration"), "{err}");
        assert!(err.0.contains("measurement command failed"), "{err}");
    }

    #[test]
    fn failing_measure_command_stops_with_a_clear_error() {
        let rsl = write_rsl("fail.rsl");
        let cli = parse_args(&sv(&[
            "tune",
            rsl.to_str().unwrap(),
            "--",
            "sh",
            "-c",
            "echo boom >&2; exit 3",
        ]))
        .unwrap();
        let err = run(cli.command).unwrap_err();
        assert!(err.0.contains("exploration 1"), "{err}");
        assert!(err.0.contains("measurement command failed"), "{err}");
        assert!(err.0.contains("boom"), "{err}");
    }

    #[test]
    fn unparseable_measure_output_stops_with_a_clear_error() {
        let rsl = write_rsl("garbage.rsl");
        let cli = parse_args(&sv(&[
            "tune",
            rsl.to_str().unwrap(),
            "--",
            "sh",
            "-c",
            "echo not-a-number",
        ]))
        .unwrap();
        let err = run(cli.command).unwrap_err();
        assert!(err.0.contains("exploration 1"), "{err}");
        assert!(err.0.contains("not a number"), "{err}");
        assert!(err.0.contains("not-a-number"), "{err}");
    }

    #[test]
    fn serve_and_remote_tune_round_trip() {
        let rsl = write_rsl("serve.rsl");
        let db = std::env::temp_dir()
            .join("harmony-cli-tests")
            .join("serve-exp.json");
        fs::remove_file(&db).ok();
        let cmd = "echo $((100 - (HARMONY_B-3)*(HARMONY_B-3) - (HARMONY_C-4)*(HARMONY_C-4)))";

        let report = serve(
            &serve_args(&rsl, &["--db", db.to_str().unwrap(), "--iterations", "50"]),
            |handle| {
                let addr = handle.addr().to_string();
                let tune = |label: &str, chars: &str| {
                    let cli = parse_args(&sv(&[
                        "tune",
                        rsl.to_str().unwrap(),
                        "--remote",
                        &addr,
                        "--label",
                        label,
                        "--characteristics",
                        chars,
                        "--",
                        "sh",
                        "-c",
                        cmd,
                    ]))
                    .unwrap();
                    run(cli.command).unwrap()
                };

                let out = tune("first", "0.2,0.8");
                assert!(out.contains("best performance: 100"), "{out}");
                assert!(
                    out.contains("run recorded server-side as \"first\""),
                    "{out}"
                );

                // The second session classifies against the first's run.
                let out = tune("second", "0.21,0.79");
                assert!(out.contains("training from prior run \"first\""), "{out}");
                assert!(out.contains("best performance: 100"), "{out}");
            },
        )
        .unwrap();
        assert!(report.contains("2 session(s) completed"), "{report}");

        // The daemon persisted its experience where we asked.
        let cli = parse_args(&sv(&["db", db.to_str().unwrap()])).unwrap();
        let out = run(cli.command).unwrap();
        assert!(out.contains("2 run(s)"), "{out}");
        fs::remove_file(&db).ok();
    }

    #[test]
    fn serve_rejects_invalid_config_combinations() {
        // The parser lets these through; DaemonConfig::builder is the one
        // place the combinations are judged, for the CLI and embedders
        // alike.
        let rsl = write_rsl("combos.rsl");
        let err = serve(&serve_args(&rsl, &["--wal", "orphan.wal"]), |_| {
            unreachable!("daemon must not start")
        })
        .unwrap_err();
        assert!(
            err.0.contains("a write-ahead journal needs a database"),
            "{err}"
        );
        let err = serve(&serve_args(&rsl, &["--compact-every", "8"]), |_| {
            unreachable!("daemon must not start")
        })
        .unwrap_err();
        assert!(
            err.0.contains("a compaction interval needs a database"),
            "{err}"
        );
        // Zero copies, empty addresses and a zero connection cap are
        // refused outright.
        let refused = |flags: &[&str]| {
            serve(&serve_args(&rsl, flags), |_| {
                unreachable!("daemon must not start")
            })
            .unwrap_err()
        };
        let err = refused(&["--peer", "a:1", "--replicate", "0"]);
        assert!(err.0.contains("at least 1"), "{err}");
        let err = refused(&["--peer", "a:1,,b:2"]);
        assert!(err.0.contains("empty peer address"), "{err}");
        let err = refused(&["--max-connections", "0"]);
        assert!(
            err.0.contains("--max-connections must be at least 1"),
            "{err}"
        );
    }

    #[test]
    fn remote_engine_explores_the_local_trajectory() {
        // `tune --remote --engine <name>` ships the name in the
        // SessionStart; the daemon builds the engine with the registry's
        // fixed seed, so against the same deterministic measurement the
        // remote run must land exactly where the local one does.
        let rsl = write_rsl("remote-engine.rsl");
        let cmd = "echo $((100 - (HARMONY_B-3)*(HARMONY_B-3) - (HARMONY_C-4)*(HARMONY_C-4)))";
        let tuned = |extra: &[&str]| {
            let mut args = vec!["tune", rsl.to_str().unwrap()];
            args.extend_from_slice(extra);
            args.extend_from_slice(&[
                "--engine",
                "divide-diverge",
                "--iterations",
                "20",
                "--",
                "sh",
                "-c",
                cmd,
            ]);
            run(parse_args(&sv(&args)).unwrap().command).unwrap()
        };
        let local = tuned(&[]);

        let mut remote = String::new();
        serve(&serve_args(&rsl, &[]), |handle| {
            remote = tuned(&["--remote", &handle.addr().to_string()]);
        })
        .unwrap();
        assert!(
            remote.contains("engine: divide-diverge (server-side)"),
            "{remote}"
        );

        // Identical exploration count, best value, and best configuration.
        let summary = |out: &str| {
            out.lines()
                .filter(|l| {
                    l.starts_with("explored ")
                        || l.starts_with("best performance")
                        || l.starts_with("  ")
                })
                .map(|l| {
                    // The remote line carries the daemon address suffix.
                    l.split(" (daemon at ").next().unwrap().to_string()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            summary(&local),
            summary(&remote),
            "\n--- local\n{local}\n--- remote\n{remote}"
        );
        assert!(local.contains("best performance: 100"), "{local}");
    }

    #[test]
    fn stats_reports_live_daemon_metrics() {
        let rsl = write_rsl("stats.rsl");
        serve(&serve_args(&rsl, &["--iterations", "20"]), |handle| {
            let cli = parse_args(&sv(&["stats", &handle.addr().to_string()])).unwrap();
            let out = run(cli.command).unwrap();
            assert!(out.contains("harmony_net_connections_total"), "{out}");
            assert!(
                out.contains("# TYPE harmony_net_request_seconds histogram"),
                "{out}"
            );
            assert!(out.contains("harmony_net_sessions_started_total"), "{out}");
            // Execution-engine metrics are preregistered so they show
            // up (as zeros) before the first parallel batch runs.
            assert!(out.contains("harmony_exec_cache_hits_total"), "{out}");
            assert!(out.contains("harmony_exec_queue_depth"), "{out}");
            // Pluggable-engine metrics likewise, one series per
            // registered engine plus the tournament counter.
            assert!(
                out.contains("harmony_engine_proposals_total{engine=\"simplex\"}"),
                "{out}"
            );
            assert!(
                out.contains("harmony_engine_evaluations_total{engine=\"tuneful\"}"),
                "{out}"
            );
            assert!(out.contains("harmony_engine_converged_iterations"), "{out}");
            assert!(
                out.contains("harmony_engine_tournament_races_total"),
                "{out}"
            );
        })
        .unwrap();
    }

    #[test]
    fn serve_log_json_appends_structured_events() {
        let rsl = write_rsl("logjson.rsl");
        let log = std::env::temp_dir()
            .join("harmony-cli-tests")
            .join("events.jsonl");
        fs::remove_file(&log).ok();
        let cmd = "echo $((100 - (HARMONY_B-3)*(HARMONY_B-3)))";
        serve(
            &serve_args(
                &rsl,
                &["--iterations", "20", "--log-json", log.to_str().unwrap()],
            ),
            |handle| {
                let cli = parse_args(&sv(&[
                    "tune",
                    rsl.to_str().unwrap(),
                    "--remote",
                    &handle.addr().to_string(),
                    "--label",
                    "logged",
                    "--",
                    "sh",
                    "-c",
                    cmd,
                ]))
                .unwrap();
                run(cli.command).unwrap();
            },
        )
        .unwrap();
        let text = fs::read_to_string(&log).unwrap();
        assert!(text.contains("\"event\":\"net.daemon_start\""), "{text}");
        assert!(text.contains("\"event\":\"net.session_start\""), "{text}");
        assert!(text.contains("\"event\":\"net.session_record\""), "{text}");
        // Every line is a standalone JSON object.
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not JSONL: {line}"
            );
        }
        fs::remove_file(&log).ok();
    }

    #[test]
    fn trace_report_renders_waterfalls_and_stage_attribution() {
        let traces = vec![WireTrace {
            trace_id: 0xab,
            complete: true,
            spans: vec![
                WireSpan {
                    id: 1,
                    parent: 0,
                    stage: "session".into(),
                    detail: String::new(),
                    start_us: 0,
                    end_us: 1000,
                    error: false,
                },
                WireSpan {
                    id: 2,
                    parent: 1,
                    stage: "serve".into(),
                    detail: "Fetch".into(),
                    start_us: 100,
                    end_us: 400,
                    error: false,
                },
                WireSpan {
                    id: 3,
                    parent: 1,
                    stage: "eval".into(),
                    detail: String::new(),
                    start_us: 400,
                    end_us: 900,
                    error: true,
                },
            ],
        }];
        let out = render_trace_report(&traces);
        assert!(out.contains("trace 00000000000000ab"), "{out}");
        assert!(out.contains("complete"), "{out}");
        assert!(out.contains("serve [Fetch]"), "{out}");
        assert!(out.contains("!error"), "{out}");
        assert!(out.contains("stage attribution"), "{out}");
        // Children are indented one level deeper than the root.
        let root_line = out.lines().find(|l| l.contains("  session")).unwrap();
        let child_line = out.lines().find(|l| l.contains("    eval")).unwrap();
        assert!(root_line.contains("1.00ms"), "{root_line}");
        assert!(child_line.contains("500us"), "{child_line}");
        // The attribution table ranks by total time: session (1000) over
        // eval (500) over serve (300).
        let table = &out[out.find("stage attribution").unwrap()..];
        let sess = table.find("session").unwrap();
        let eval = table.find("eval").unwrap();
        let serve = table.find("serve").unwrap();
        assert!(sess < eval && eval < serve, "{table}");
        // Same dump, same bytes.
        assert_eq!(out, render_trace_report(&traces));
        assert!(render_trace_report(&[]).contains("empty"));
    }

    #[test]
    fn traced_remote_tune_fills_the_flight_recorder() {
        let rsl = write_rsl("trace-flow.rsl");
        let cmd = "echo $((100 - (HARMONY_B-3)*(HARMONY_B-3)))";
        serve(&serve_args(&rsl, &["--iterations", "15"]), |handle| {
            let addr = handle.addr().to_string();
            let cli = parse_args(&sv(&[
                "tune",
                rsl.to_str().unwrap(),
                "--remote",
                &addr,
                "--trace",
                "--label",
                "traced",
                "--",
                "sh",
                "-c",
                cmd,
            ]))
            .unwrap();
            let out = run(cli.command).unwrap();
            assert!(out.contains("best performance"), "{out}");
            let cli = parse_args(&sv(&["trace", &addr])).unwrap();
            let out = run(cli.command).unwrap();
            assert!(out.contains("flight recorder"), "{out}");
            // The whole client → daemon → executor path shows up.
            for needle in [
                "session",
                "serve",
                "net.read",
                "classify",
                "eval",
                "queue.wait",
                "exec.run",
                "wal.append",
                "stage attribution",
            ] {
                assert!(out.contains(needle), "missing {needle} in:\n{out}");
            }
        })
        .unwrap();
    }

    #[test]
    fn remote_tune_surfaces_measurement_failures() {
        let rsl = write_rsl("serve-fail.rsl");
        serve(&serve_args(&rsl, &["--iterations", "20"]), |handle| {
            let cli = parse_args(&sv(&[
                "tune",
                rsl.to_str().unwrap(),
                "--remote",
                &handle.addr().to_string(),
                "--",
                "sh",
                "-c",
                "exit 9",
            ]))
            .unwrap();
            let err = run(cli.command).unwrap_err();
            assert!(err.0.contains("exploration 1"), "{err}");
            assert!(err.0.contains("measurement command failed"), "{err}");
        })
        .unwrap();
    }
}
