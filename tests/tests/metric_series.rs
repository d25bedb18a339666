//! No dead series: ordinary work moves every row of every metric table,
//! and a row it leaves at zero is named in [`QUIET`] with the condition
//! that moves it. A daemon's own sessions move every row but those named
//! in [`LOCAL_ONLY`], which only an in-process run moves: the daemon's
//! exposition is read before anything runs in-process. The registry is
//! process-global, so this is the only test in its binary.

use harmony::engine::{drive, drive_parallel};
use harmony::prelude::*;
use harmony_exec::{Executor, MemoCache};
use harmony_net::client::Client;
use harmony_net::obs::DAEMON_SERIES;
use harmony_net::protocol::SpaceSpec;
use harmony_net::server::{DaemonConfig, TuningDaemon};
use harmony_obs::metrics::Series;
use std::convert::Infallible;

/// Rows the work below leaves at zero, each with what moves it. A row
/// is its name, or `name{key="value"}` for one of a fixed-label family.
const QUIET: &[(&str, &str)] = &[
    ("harmony_exec_queue_depth", "a batch in flight"),
    (
        "harmony_exec_pool_panics_total",
        "a task-pool job that panics",
    ),
    (
        "harmony_engine_tournament_races_total",
        "the engine tournament",
    ),
    (
        "harmony_net_connections_refused_total",
        "the connection cap",
    ),
    ("harmony_net_errors_total", "an Error response"),
    (
        "harmony_net_sessions_abandoned_total",
        "a connection lost mid-session",
    ),
    ("harmony_net_db_persist_failures_total", "a failed persist"),
    ("harmony_net_retries_total", "a client retry"),
    ("harmony_net_resumes_total", "a Resume"),
    (
        "harmony_net_draining_responses_total",
        "a request during a drain",
    ),
    (
        "harmony_net_sessions_parked",
        "a session parked awaiting Resume",
    ),
    (
        "harmony_net_session_ttl_expirations_total",
        "the keepalive TTL",
    ),
    ("harmony_net_peer_connections_total", "a ring"),
    ("harmony_net_peer_runs_shipped_total", "a ring"),
    ("harmony_net_peer_sessions_shipped_total", "a ring"),
    (
        "harmony_net_peer_session_resyncs_total",
        "a ring whose replica restarts",
    ),
    (
        "harmony_net_peer_ship_failures_total",
        "a ring with a member down",
    ),
    (
        "harmony_net_shard_adoptions_total",
        "a ring member that dies",
    ),
    (
        "harmony_net_shard_redirects_total",
        "a Resume sent to a non-owner",
    ),
    ("harmony_net_shard_replica_sessions_entries", "a ring"),
];

/// Rows only an in-process run moves, each with what moves it: a
/// daemon measures nothing (its clients do), so it never batches or
/// memoizes a measurement.
const LOCAL_ONLY: &[(&str, &str)] = &[
    ("harmony_exec_batches_total", "an Executor batch"),
    ("harmony_exec_evaluations_total", "an Executor batch"),
    ("harmony_exec_batch_seconds", "an Executor batch"),
    ("harmony_exec_cache_hits_total", "a MemoCache"),
    ("harmony_exec_cache_misses_total", "a MemoCache"),
    ("harmony_exec_cache_evictions_total", "a MemoCache"),
    ("harmony_exec_cache_entries", "a MemoCache"),
];

const RSL: &str = "{ harmonyBundle x { int {0 100 1} }}\n{ harmonyBundle y { int {0 100 1} }}";

fn perf(cfg: &Configuration) -> f64 {
    let (x, y) = (cfg.get(0) as f64, cfg.get(1) as f64);
    5000.0 - (x - 80.0).powi(2) - 2.0 * (y - 75.0).powi(2)
}

/// The sample lines of `text` that belong to `row`.
fn samples<'a>(text: &'a str, row: &Series) -> impl Iterator<Item = &'a str> + 'a {
    let sample = match row.kind {
        "histogram" => format!("{}_count", row.name),
        _ => row.name.to_string(),
    };
    let prefix = match (row.label, row.value) {
        (None, _) => format!("{sample} "),
        (Some(key), Some(value)) => format!("{sample}{{{key}=\"{value}\"}} "),
        (Some(key), None) => format!("{sample}{{{key}=\""),
    };
    text.lines().filter(move |l| l.starts_with(&prefix))
}

/// Whether any sample of `row` in `text` is non-zero.
fn moved(text: &str, row: &Series) -> bool {
    samples(text, row).any(|line| {
        let value = line.split(' ').nth(1).unwrap();
        value.parse::<f64>().unwrap() != 0.0
    })
}

fn row_id(row: &Series) -> String {
    match (row.label, row.value) {
        (Some(key), Some(value)) => format!("{}{{{key}=\"{value}\"}}", row.name),
        _ => row.name.to_string(),
    }
}

#[test]
fn every_series_moves_or_is_named_quiet() {
    let dir = std::env::temp_dir().join(format!("harmony-metric-series-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let server = TuningDaemon::start(DaemonConfig {
        db_path: Some(dir.join("exp.json")),
        compact_every: 1,
        ..DaemonConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let measure = |cfg: &Configuration| Ok::<_, Infallible>(perf(cfg));
    for (label, characteristics) in [("cold", vec![0.2, 0.8]), ("warm", vec![0.21, 0.79])] {
        let space = SpaceSpec::Rsl(RSL.into());
        let started = client
            .start_session(space, label, characteristics, Some(60))
            .unwrap();
        assert_eq!(started.trained_from.is_some(), label == "warm", "{label}");
        while let Some(proposal) = client.fetch().unwrap() {
            client.report(perf(&proposal.values)).unwrap();
        }
        assert!(!client.sensitivity().unwrap().is_empty());
        client.end_session().unwrap();
    }
    // The daemon's exposition: gauges read live (a connected client),
    // counters once more after shutdown, when the journal is compacted.
    let mut daemon = client.stats().unwrap();
    drop(client);
    server.shutdown();
    daemon += &harmony_obs::metrics::global().encode();

    let space = harmony_space::parse_rsl(RSL).unwrap();
    let tuner = Tuner::new(space, TuningOptions::improved().with_max_iterations(80));
    assert!(drive(&mut tuner.session(), measure).unwrap().converged);
    // Small enough to evict; the second run hits what the first left.
    let cache = MemoCache::new(16);
    for _ in 0..2 {
        drive_parallel(
            &mut tuner.session(),
            &measure,
            &Executor::new(2),
            Some(&cache),
        )
        .unwrap();
    }

    // Read while the cache's entries gauge is live.
    let local = harmony_obs::metrics::global().encode();
    std::fs::remove_dir_all(&dir).ok();

    let rows = DAEMON_SERIES.concat();
    let named = |list: &[(&str, &str)], id: &str| list.iter().any(|(row, _)| *row == id);
    let (mut not_daemon, mut not_local_only) = (Vec::new(), Vec::new());
    for row in &rows {
        let id = row_id(row);
        if named(LOCAL_ONLY, &id) {
            if moved(&daemon, row) || !moved(&local, row) {
                not_local_only.push(id);
            }
        } else if !named(QUIET, &id) && !moved(&daemon, row) {
            not_daemon.push(id);
        }
    }
    assert!(
        not_daemon.is_empty(),
        "series the daemon's sessions left at zero: {not_daemon:?}\n{daemon}"
    );
    assert!(
        not_local_only.is_empty(),
        "LOCAL_ONLY series the daemon moved, or nothing did: {not_local_only:?}"
    );
    for (row, _) in QUIET.iter().chain(LOCAL_ONLY) {
        assert!(
            rows.iter().any(|r| row_id(r) == *row),
            "{row} is no row of any table"
        );
    }
}
