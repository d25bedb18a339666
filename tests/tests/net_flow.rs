//! End-to-end flows through the network layer: concurrent remote
//! sessions sharing one daemon, §4.2 warm starts from another client's
//! recorded experience, database persistence across daemon restarts, and
//! the daemon's telemetry (`Stats` exposition, structured events).
//!
//! The metrics registry and event sink are process-global and these
//! tests run in parallel, so telemetry assertions work on before/after
//! deltas (`>=`, never `==`) and filter captured events by label.

use harmony::prelude::*;
use harmony_net::client::Client;
use harmony_net::codec::{read_frame, write_frame};
use harmony_net::fault::{FaultKind, FaultPlan, FaultProxy};
use harmony_net::protocol::{Request, Response, SpaceSpec, MIN_SUPPORTED_VERSION};
use harmony_net::server::{DaemonConfig, TuningDaemon};
use harmony_net::wire::response_wire_kind;
use harmony_net::NetError;
use harmony_space::{Configuration, ParamDef, ParameterSpace};
use integration_tests::alone;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

fn space() -> ParameterSpace {
    ParameterSpace::builder()
        .param(ParamDef::int("cache", 1, 20, 10, 1))
        .param(ParamDef::int("threads", 1, 20, 10, 1))
        .build()
        .unwrap()
}

/// Smooth synthetic system with its optimum at cache=14, threads=6.
fn perf(cfg: &Configuration) -> f64 {
    let c = cfg.values()[0] as f64;
    let t = cfg.values()[1] as f64;
    200.0 - (c - 14.0).powi(2) - 2.0 * (t - 6.0).powi(2)
}

fn daemon_config(db: Option<PathBuf>) -> DaemonConfig {
    DaemonConfig {
        db_path: db,
        tuning: TuningOptions::improved().with_max_iterations(60),
        ..DaemonConfig::default()
    }
}

fn run_session(
    addr: std::net::SocketAddr,
    label: &str,
    characteristics: Vec<f64>,
) -> (
    harmony_net::client::SessionStarted,
    harmony_net::client::SessionSummary,
) {
    let mut client = Client::connect(addr).unwrap();
    client
        .tune_with(
            SpaceSpec::Explicit(space()),
            label,
            characteristics,
            None,
            |cfg| Ok::<f64, NetError>(perf(cfg)),
        )
        .unwrap()
}

fn temp_db(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("harmony-net-flow");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

/// Parse a Prometheus text exposition into a series → value map, failing
/// on any sample line that does not follow `name[{labels}] value`.
fn parse_exposition(text: &str) -> HashMap<String, f64> {
    let mut map = HashMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // A tracing daemon appends OpenMetrics exemplars to histogram
        // buckets (`… 3 # {trace_id="…"} 0.0012`); the sample value is
        // what precedes the exemplar marker.
        let sample = line.split(" # ").next().unwrap_or(line);
        let (series, value) = sample
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed sample line: {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric sample value: {line:?}"));
        map.insert(series.to_string(), value);
    }
    map
}

fn stats_snapshot(addr: std::net::SocketAddr) -> HashMap<String, f64> {
    let mut client = Client::connect(addr).unwrap();
    parse_exposition(&client.stats().unwrap())
}

fn series(map: &HashMap<String, f64>, key: &str) -> f64 {
    map.get(key).copied().unwrap_or(0.0)
}

#[test]
fn concurrent_sessions_share_one_daemon() {
    let handle = TuningDaemon::start(daemon_config(None)).unwrap();
    let addr = handle.addr();

    let workers: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                run_session(addr, &format!("client-{i}"), vec![i as f64, 1.0])
            })
        })
        .collect();
    for worker in workers {
        let (_, summary) = worker.join().unwrap();
        assert!(
            summary.performance > 190.0,
            "remote tuning should approach the optimum, got {}",
            summary.performance
        );
        assert!(summary.iterations > 0);
    }

    assert_eq!(handle.completed_sessions(), 3);
    assert_eq!(
        handle.db_runs(),
        3,
        "every session feeds the shared experience db"
    );
    handle.shutdown();
}

#[test]
fn second_session_warm_starts_from_the_firsts_experience() {
    let handle = TuningDaemon::start(daemon_config(None)).unwrap();
    let addr = handle.addr();

    let (started, _) = run_session(addr, "monday", vec![0.2, 0.8]);
    assert_eq!(
        started.trained_from, None,
        "nothing to train from on an empty db"
    );

    // Similar workload characteristics: the daemon classifies them to
    // monday's run and trains the new session on it (§4.2).
    let (started, summary) = run_session(addr, "tuesday", vec![0.21, 0.79]);
    assert_eq!(started.trained_from.as_deref(), Some("monday"));
    assert!(
        started.training_iterations > 0,
        "training replays prior explorations"
    );
    assert!(summary.performance > 190.0);

    handle.shutdown();
}

#[test]
fn stats_counters_stay_monotonic_across_concurrent_sessions() {
    let handle = TuningDaemon::start(daemon_config(None)).unwrap();
    let addr = handle.addr();
    let before = stats_snapshot(addr);

    let workers: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                run_session(
                    addr,
                    &format!("stats-client-{i}"),
                    vec![20.0 + i as f64, 1.0],
                )
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }

    let after = stats_snapshot(addr);
    // Counters, histogram buckets, sums, and counts never go backwards,
    // no matter how the three sessions interleaved.
    for (name, &was) in &before {
        let monotonic = name.contains("_total")
            || name.contains("_bucket")
            || name.ends_with("_sum")
            || name.ends_with("_count");
        if monotonic {
            let now = series(&after, name);
            assert!(now >= was, "{name} went backwards: {was} -> {now}");
        }
    }
    // And the three sessions are visible in the deltas (>=: the registry
    // is process-global, so parallel tests may add more).
    for (key, min_delta) in [
        ("harmony_net_sessions_started_total", 3.0),
        ("harmony_net_sessions_completed_total", 3.0),
        ("harmony_net_connections_total", 3.0),
        ("harmony_net_requests_total{type=\"SessionStart\"}", 3.0),
        ("harmony_net_requests_total{type=\"SessionEnd\"}", 3.0),
        ("harmony_net_request_seconds_count{type=\"Fetch\"}", 3.0),
    ] {
        let delta = series(&after, key) - series(&before, key);
        assert!(delta >= min_delta, "{key} delta {delta} < {min_delta}");
    }
    handle.shutdown();
}

#[test]
fn warm_start_hits_and_misses_are_accounted() {
    let handle = TuningDaemon::start(daemon_config(None)).unwrap();
    let addr = handle.addr();
    let before = stats_snapshot(addr);

    // Empty per-daemon db: the first classification must miss.
    let (started, _) = run_session(addr, "cold", vec![31.0, 17.0]);
    assert!(started.trained_from.is_none());
    // Near-identical characteristics: the second must hit.
    let (started, _) = run_session(addr, "warm", vec![31.01, 16.99]);
    assert_eq!(started.trained_from.as_deref(), Some("cold"));

    let after = stats_snapshot(addr);
    let miss_key = "harmony_net_warm_start_total{result=\"miss\"}";
    let hit_key = "harmony_net_warm_start_total{result=\"hit\"}";
    assert!(series(&after, miss_key) >= series(&before, miss_key) + 1.0);
    assert!(series(&after, hit_key) >= series(&before, hit_key) + 1.0);
    handle.shutdown();
}

#[test]
fn stats_exposition_parses_with_consistent_histograms() {
    let handle = TuningDaemon::start(daemon_config(None)).unwrap();
    let addr = handle.addr();
    run_session(addr, "shape", vec![41.0, 2.0]);

    let mut client = Client::connect(addr).unwrap();
    let text = client.stats().unwrap();
    let map = parse_exposition(&text); // panics on any malformed line
    assert!(
        map.len() >= 10,
        "expected a rich exposition, got {} series",
        map.len()
    );
    let families = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert!(families >= 10, "only {families} metric families");

    // The Fetch latency histogram is internally consistent: cumulative
    // buckets never decrease and the +Inf bucket equals the count.
    let mut last = 0.0;
    let mut buckets = 0;
    for line in text
        .lines()
        .filter(|l| l.starts_with("harmony_net_request_seconds_bucket{type=\"Fetch\""))
    {
        // Strip an OpenMetrics exemplar, if one is attached: the
        // cumulative count is what precedes the ` # ` marker.
        let sample = line.split(" # ").next().unwrap_or(line);
        let v: f64 = sample.rsplit_once(' ').unwrap().1.parse().unwrap();
        assert!(v >= last, "bucket not cumulative: {line}");
        last = v;
        buckets += 1;
    }
    assert!(buckets > 2, "expected several Fetch latency buckets");
    assert_eq!(
        series(
            &map,
            "harmony_net_request_seconds_bucket{type=\"Fetch\",le=\"+Inf\"}"
        ),
        series(&map, "harmony_net_request_seconds_count{type=\"Fetch\"}"),
        "+Inf bucket must equal the observation count"
    );
    handle.shutdown();
}

#[test]
fn daemon_emits_structured_session_events() {
    let capture = harmony_obs::event::Capture::install();
    let handle = TuningDaemon::start(daemon_config(None)).unwrap();
    run_session(handle.addr(), "evented-run", vec![55.0, 44.0]);
    handle.shutdown();

    // The sink is process-global: filter by this test's unique label.
    let lines = capture.lines();
    let start = lines
        .iter()
        .find(|l| {
            l.contains("\"event\":\"net.session_start\"") && l.contains("\"label\":\"evented-run\"")
        })
        .unwrap_or_else(|| panic!("no session_start event in {lines:#?}"));
    assert!(start.contains("\"warm_start\":false"), "{start}");
    assert!(start.contains("\"ts_us\":"), "{start}");
    let record = lines
        .iter()
        .find(|l| {
            l.contains("\"event\":\"net.session_record\"")
                && l.contains("\"label\":\"evented-run\"")
        })
        .unwrap_or_else(|| panic!("no session_record event in {lines:#?}"));
    assert!(record.contains("\"converged\":"), "{record}");
    assert!(record.contains("\"best\":"), "{record}");
}

#[test]
fn experience_survives_a_daemon_restart() {
    let db = temp_db("restart.json");

    let handle = TuningDaemon::start(daemon_config(Some(db.clone()))).unwrap();
    let (_, summary) = run_session(handle.addr(), "before-restart", vec![0.5, 0.5]);
    assert!(summary.iterations > 0);
    handle.shutdown();
    assert!(db.exists(), "shutdown persists the experience db");

    // A fresh daemon on the same file sees the prior run and uses it.
    let handle = TuningDaemon::start(daemon_config(Some(db.clone()))).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let runs = client.db_runs().unwrap();
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].label, "before-restart");
    assert!(runs[0].records > 0);
    drop(client);

    let (started, _) = run_session(handle.addr(), "after-restart", vec![0.5, 0.5]);
    assert_eq!(started.trained_from.as_deref(), Some("before-restart"));
    handle.shutdown();

    assert_eq!(
        harmony::history::ExperienceDb::load(&db).unwrap().len(),
        2,
        "the restarted daemon records new runs into the same file"
    );
    std::fs::remove_file(&db).ok();
}

/// A non-finite number has no JSON spelling: recorded, it would be
/// written as `null` and the next start could not load its own files.
/// Both entry points refuse it in-protocol, the session stays usable,
/// and the daemon restarts over what it wrote.
#[test]
fn non_finite_numbers_are_refused_and_never_reach_the_files() {
    let db = temp_db("non-finite.json");
    let handle = TuningDaemon::start(daemon_config(Some(db.clone()))).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(
        client.wire_format(),
        harmony_net::WireFormat::Binary,
        "only raw f64 bits can carry a NaN to the daemon"
    );
    let refused = |err: NetError| {
        assert!(
            matches!(&err, NetError::Remote(m) if m.contains("finite")),
            "{err}"
        )
    };
    refused(
        client
            .start_session(
                SpaceSpec::Explicit(space()),
                "nan",
                vec![0.5, f64::NAN],
                None,
            )
            .unwrap_err(),
    );
    client
        .start_session(
            SpaceSpec::Explicit(space()),
            "nan",
            vec![0.5, 0.5],
            Some(12),
        )
        .unwrap();
    let first = client.fetch().unwrap().unwrap();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        refused(client.report(bad).unwrap_err());
    }
    // The refused reports consumed nothing: same proposal, same
    // sequence number, and the session runs to its end.
    assert_eq!(client.fetch().unwrap().unwrap().values, first.values);
    client.report(perf(&first.values)).unwrap();
    while let Some(p) = client.fetch().unwrap() {
        client.report(perf(&p.values)).unwrap();
    }
    assert_eq!(client.end_session().unwrap().iterations, 12);
    drop(client);
    handle.shutdown();

    let restarted = TuningDaemon::start(daemon_config(Some(db.clone())))
        .expect("the daemon restarts over its own files");
    assert_eq!(restarted.db_runs(), 1);
    restarted.shutdown();
    std::fs::remove_file(&db).ok();
}

#[test]
fn daemon_recovers_runs_from_a_journal_with_a_torn_tail() {
    use harmony::history::{wal::WalWriter, ExperienceDb, RunHistory};
    use std::io::Write as _;

    let db = temp_db("torn.json");
    let wal = temp_db("torn.json.wal");

    // A crashed daemon leaves: a compacted snapshot, journal lines for
    // runs recorded since, and half a line from the append the crash
    // interrupted.
    let mut snapshot = ExperienceDb::new();
    let mut run = RunHistory::new("compacted", vec![0.1, 0.1]);
    run.push(&Configuration::new(vec![5, 5]), 50.0);
    snapshot.add_run(run);
    snapshot.save(&db).unwrap();
    let mut writer = WalWriter::open(&wal).unwrap();
    for (label, c) in [("journaled-1", 0.5), ("journaled-2", 0.9)] {
        let mut run = RunHistory::new(label, vec![c, c]);
        run.push(&Configuration::new(vec![7, 7]), 70.0);
        writer.append_run(&run).unwrap();
    }
    drop(writer);
    let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    f.write_all(b"{\"label\":\"torn-by-cra").unwrap();
    drop(f);

    // The restarted daemon replays snapshot + journal and drops the torn
    // tail; the journaled experience is live for classification.
    let handle = TuningDaemon::start(daemon_config(Some(db.clone()))).unwrap();
    assert_eq!(handle.db_runs(), 3, "snapshot + journal, torn tail dropped");
    let mut client = Client::connect(handle.addr()).unwrap();
    let started = client
        .start_session(SpaceSpec::Explicit(space()), "probe", vec![0.9, 0.9], None)
        .unwrap();
    assert_eq!(started.trained_from.as_deref(), Some("journaled-2"));
    drop(client);
    handle.shutdown();
    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&wal).ok();
}

#[test]
fn journal_absorbs_runs_between_compactions() {
    let db = temp_db("journal.json");
    let wal = temp_db("journal.json.wal");

    // Compaction threshold higher than the session count: completed runs
    // must reach the journal, not the snapshot.
    let handle = TuningDaemon::start(DaemonConfig {
        compact_every: 1000,
        ..daemon_config(Some(db.clone()))
    })
    .unwrap();
    run_session(handle.addr(), "journal-only", vec![0.3, 0.3]);

    // The flusher appends asynchronously; wait for the line to land.
    let mut journal_len = 0;
    for _ in 0..100 {
        journal_len = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        if journal_len > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(journal_len > 0, "recorded run must hit the journal");
    assert!(!db.exists(), "no compaction yet: snapshot not written");

    // Shutdown folds the journal into the snapshot and truncates it.
    handle.shutdown();
    assert_eq!(harmony::history::ExperienceDb::load(&db).unwrap().len(), 1);
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), 0);
    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&wal).ok();
}

#[test]
fn periodic_compaction_matches_the_live_database() {
    let db = temp_db("compact-live.json");
    let wal = temp_db("compact-live.json.wal");

    // Every recorded run triggers a compaction, so after the sessions
    // finish the snapshot alone must equal the daemon's live state.
    let handle = TuningDaemon::start(DaemonConfig {
        compact_every: 1,
        ..daemon_config(Some(db.clone()))
    })
    .unwrap();
    for i in 0..3 {
        run_session(handle.addr(), &format!("compact-{i}"), vec![i as f64, 0.0]);
    }
    let live_runs = handle.db_runs();
    // Compaction is asynchronous; wait until the snapshot catches up.
    let mut snapshot_runs = 0;
    for _ in 0..100 {
        snapshot_runs = harmony::history::ExperienceDb::load(&db)
            .map(|d| d.len())
            .unwrap_or(0);
        if snapshot_runs == live_runs {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(snapshot_runs, live_runs, "snapshot == in-memory database");
    handle.shutdown();
    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&wal).ok();
}

// ---------------------------------------------------------------------
// Reactor flows: request pipelining, slowloris isolation and raw v1
// clients. The raw-socket helpers speak protocol v1 (no Hello), framing
// requests by hand.

/// Encode one request as a length-prefixed wire frame.
fn raw_frame(req: &Request) -> Vec<u8> {
    let payload = serde_json::to_vec(req).unwrap();
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(&payload);
    buf
}

/// Read one response frame's payload, in whatever format it travels.
fn read_raw_payload(stream: &mut TcpStream) -> Vec<u8> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).unwrap();
    let len = u32::from_be_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    payload
}

/// Read one response frame, returning its externally-tagged enum tag
/// (`"Config"`, `"SessionSummary"`, …) plus the raw JSON payload.
fn read_raw_response(stream: &mut TcpStream) -> (String, String) {
    let text = String::from_utf8(read_raw_payload(stream)).unwrap();
    let tag = text.split('"').nth(1).unwrap_or("").to_string();
    (tag, text)
}

fn session_start_request(characteristics: Vec<f64>, max_iterations: Option<usize>) -> Request {
    Request::SessionStart {
        space: SpaceSpec::Explicit(space()),
        label: "raw".into(),
        characteristics,
        max_iterations,
        engine: None,
    }
}

#[test]
fn pipelined_requests_on_one_connection_answer_in_order() {
    let handle = TuningDaemon::start(daemon_config(None)).unwrap();
    let before = stats_snapshot(handle.addr());

    // A whole session's worth of requests in one burst: the server must
    // answer each in order, never interleaving or dropping one.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut burst = Vec::new();
    burst.extend_from_slice(&raw_frame(&session_start_request(vec![3.0, 4.0], Some(10))));
    burst.extend_from_slice(&raw_frame(&Request::Fetch));
    burst.extend_from_slice(&raw_frame(&Request::Report {
        performance: 50.0,
        seq: None,
    }));
    burst.extend_from_slice(&raw_frame(&Request::Fetch));
    burst.extend_from_slice(&raw_frame(&Request::SessionEnd));
    stream.write_all(&burst).unwrap();

    let tags: Vec<String> = (0..5).map(|_| read_raw_response(&mut stream).0).collect();
    assert_eq!(
        tags,
        [
            "SessionStarted",
            "Config",
            "Reported",
            "Config",
            "SessionSummary"
        ],
        "pipelined responses must come back in request order"
    );

    // Decoding requests behind an unfinished one is exactly what the
    // reactor's pipelining counter counts.
    let after = stats_snapshot(handle.addr());
    assert!(
        series(&after, "harmony_net_reactor_pipelined_requests_total")
            > series(&before, "harmony_net_reactor_pipelined_requests_total"),
        "a single-burst session must register pipelined requests"
    );
    handle.shutdown();
}

/// Requests that cannot wait are served on the reactor's loop thread, a
/// bounded batch per turn: a burst far past `MAX_PIPELINE` must be
/// answered completely and in order without the loop recursing once per
/// request (20,000 deep overflowed its stack), and the daemon must serve
/// the next client afterwards.
/// A client that closes with a response still unread makes its kernel
/// answer with an RST, so the daemon sees a socket error rather than an
/// EOF. The conversation still ended at a frame boundary: the session
/// parks like any other, and the reaper records what was measured once
/// the TTL runs out.
#[test]
fn a_connection_reset_at_a_frame_boundary_parks_its_session() {
    let handle = TuningDaemon::start(DaemonConfig {
        session_ttl: std::time::Duration::from_millis(50),
        ..daemon_config(None)
    })
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut rt = |req: &Request| -> Response {
        write_frame(&mut stream, req).unwrap();
        read_frame(&mut stream).unwrap()
    };
    let hello = Request::Hello {
        version: None,
        min_version: Some(MIN_SUPPORTED_VERSION),
        max_version: Some(2),
        client: "reset test".into(),
    };
    assert!(matches!(rt(&hello), Response::Hello { version: 2, .. }));
    let started = rt(&session_start_request(vec![0.1, 0.9], Some(40)));
    assert!(
        matches!(
            started,
            Response::SessionStarted {
                session_token: Some(_),
                ..
            }
        ),
        "{started:?}"
    );
    for seq in 0..3 {
        let Response::Config { values, .. } = rt(&Request::Fetch) else {
            panic!("the budget is not spent");
        };
        let report = Request::Report {
            performance: perf(&Configuration::new(values)),
            seq: Some(seq),
        };
        assert!(matches!(rt(&report), Response::Reported));
    }
    // One more request; wait until its answer sits unread in the
    // receive buffer, then close.
    write_frame(&mut stream, &Request::Fetch).unwrap();
    stream.peek(&mut [0u8; 1]).unwrap();
    drop(stream);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while handle.db_runs() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(
        handle.db_runs(),
        1,
        "the reset connection's session was dropped instead of parked"
    );
    handle.shutdown();
}

#[test]
fn a_huge_pipelined_burst_is_answered_in_order() {
    let handle = TuningDaemon::start(daemon_config(None)).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    const FETCHES: usize = 20_000;
    let fetch = raw_frame(&Request::Fetch);
    let mut burst = raw_frame(&session_start_request(vec![5.0, 5.0], Some(10)));
    for _ in 0..FETCHES {
        burst.extend_from_slice(&fetch);
    }
    burst.extend_from_slice(&raw_frame(&Request::SessionEnd));
    stream.write_all(&burst).unwrap();

    assert_eq!(read_raw_response(&mut stream).0, "SessionStarted");
    let (_, first) = read_raw_response(&mut stream);
    for i in 1..FETCHES {
        // Fetch is idempotent: every answer is the same proposal.
        let (tag, payload) = read_raw_response(&mut stream);
        assert_eq!(tag, "Config", "answer {i}");
        assert_eq!(payload, first, "answer {i}");
    }
    assert!(first.contains("\"iteration\":0"), "{first}");
    assert_eq!(read_raw_response(&mut stream).0, "SessionSummary");
    drop(stream);

    let (_, summary) = run_session(handle.addr(), "after-the-burst", vec![1.0, 2.0]);
    assert!(summary.performance > 190.0);
    handle.shutdown();
}

/// `Resume` stays on the worker pool because its grace poll sleeps: while
/// one connection's `Resume` waits out the grace period for a session
/// that is live elsewhere (not parked), a third connection runs a whole
/// session to completion.
#[test]
fn a_waiting_resume_does_not_stall_other_sessions() {
    let handle = TuningDaemon::start(daemon_config(None)).unwrap();
    let addr = handle.addr();
    let mut owner = Client::connect(addr).unwrap();
    owner
        .start_session(SpaceSpec::Explicit(space()), "live", vec![7.0, 7.0], None)
        .unwrap();
    let token = owner.session_token().unwrap().to_string();

    let mut resumer = TcpStream::connect(addr).unwrap();
    resumer
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let hello = Request::Hello {
        version: None,
        min_version: Some(2),
        max_version: Some(2),
        client: "resumer".into(),
    };
    resumer.write_all(&raw_frame(&hello)).unwrap();
    assert_eq!(read_raw_response(&mut resumer).0, "Hello");
    resumer
        .write_all(&raw_frame(&Request::Resume { token }))
        .unwrap();
    let waiting = std::thread::spawn(move || {
        let (tag, payload) = read_raw_response(&mut resumer);
        (tag, payload, std::time::Instant::now())
    });

    // The Resume frame is already on its way: a loop thread that served
    // it would sit out the grace poll before serving anything else.
    let mut other = Client::connect(addr).unwrap();
    other
        .start_session(
            SpaceSpec::Explicit(space()),
            "other",
            vec![1.0, 9.0],
            Some(20),
        )
        .unwrap();
    let mut evaluations = 0;
    while let Some(p) = other.fetch().unwrap() {
        other.report(perf(&p.values)).unwrap();
        evaluations += 1;
    }
    other.end_session().unwrap();
    let other_done = std::time::Instant::now();
    assert_eq!(evaluations, 20);

    let (tag, payload, resume_answered) = waiting.join().unwrap();
    assert_eq!(
        tag, "Error",
        "a live, unparked session cannot be resumed: {payload}"
    );
    assert!(
        other_done < resume_answered,
        "a whole session must finish while a Resume waits out its grace poll"
    );
    drop(owner);
    handle.shutdown();
}

#[test]
fn slowloris_connection_does_not_stall_others() {
    let handle = TuningDaemon::start(daemon_config(None)).unwrap();
    let addr = handle.addr();

    // The proxy dribbles the very first request frame into the daemon a
    // byte at a time; a ~300-byte SessionStart takes seconds to arrive.
    let proxy = FaultProxy::start(
        addr,
        FaultPlan::at([(
            0,
            FaultKind::TrickleForward(std::time::Duration::from_millis(8)),
        )]),
    )
    .unwrap();
    let proxy_addr = proxy.addr();
    let slow = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(proxy_addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .unwrap();
        stream
            .write_all(&raw_frame(&session_start_request(vec![8.0, 9.0], Some(5))))
            .unwrap();
        let (tag, _) = read_raw_response(&mut stream);
        (tag, std::time::Instant::now())
    });

    // Meanwhile a direct client runs an entire tuning session. If the
    // server held a thread (or the reactor's event loop) hostage to the
    // dribbling frame, this would stall behind it.
    let (_, summary) = run_session(addr, "direct-past-slowloris", vec![1.0, 2.0]);
    let direct_done = std::time::Instant::now();
    assert!(summary.performance > 190.0);

    let (tag, slow_done) = slow.join().unwrap();
    assert_eq!(tag, "SessionStarted", "the dribbled frame still lands");
    assert!(
        direct_done < slow_done,
        "a full direct session must finish while the slowloris frame is still dribbling"
    );
    handle.shutdown();
}

#[test]
fn raw_v1_client_tunes_end_to_end() {
    let handle = TuningDaemon::start(daemon_config(None)).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();

    // No Hello: the first request lands on a fresh connection, which the
    // server must treat as protocol v1 — served, but no session token.
    stream
        .write_all(&raw_frame(&session_start_request(vec![0.3, 0.7], Some(5))))
        .unwrap();
    let (tag, payload) = read_raw_response(&mut stream);
    assert_eq!(tag, "SessionStarted");
    assert!(
        payload.contains("\"session_token\":null"),
        "v1 connections get no resume token: {payload}"
    );

    let mut reports = 0;
    loop {
        stream.write_all(&raw_frame(&Request::Fetch)).unwrap();
        let (tag, _) = read_raw_response(&mut stream);
        if tag == "Done" {
            break;
        }
        assert_eq!(tag, "Config");
        stream
            .write_all(&raw_frame(&Request::Report {
                performance: 10.0 + reports as f64,
                seq: None,
            }))
            .unwrap();
        let (tag, _) = read_raw_response(&mut stream);
        assert_eq!(tag, "Reported");
        reports += 1;
    }
    assert_eq!(reports, 5, "the budget bounds live iterations");

    stream.write_all(&raw_frame(&Request::SessionEnd)).unwrap();
    let (tag, payload) = read_raw_response(&mut stream);
    assert_eq!(tag, "SessionSummary");
    assert!(payload.contains("\"iterations\":5"), "{payload}");

    assert_eq!(handle.completed_sessions(), 1);
    assert_eq!(handle.db_runs(), 1, "the v1 session's run is recorded");
    handle.shutdown();
}

/// Length-prefix an already-encoded payload.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
    buf.extend_from_slice(payload);
    buf
}

/// `Traced` wrapping `Traced` 10,000 deep, in either format, is one small
/// frame that used to overflow the decoding thread's stack and abort the
/// whole daemon. Each is now answered with an `Error`, and the daemon goes
/// on to serve a full session.
#[test]
fn deeply_nested_traced_frames_are_refused_not_fatal() {
    const DEPTH: usize = 10_000;
    let handle = TuningDaemon::start(daemon_config(None)).unwrap();
    let connect = || {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        stream
    };

    // JSON, on a fresh connection with no Hello: too deep for the
    // parser, and as deep as it accepts (each wrapper is two levels,
    // and the innermost `spans` one more).
    let open = r#"{"Traced":{"trace_id":1,"parent_span":0,"spans":[],"request":"#;
    for (depth, why) in [(DEPTH, "recursion limit"), (127, "may not wrap")] {
        let json = format!("{}\"Fetch\"{}", open.repeat(depth), "}}".repeat(depth));
        let mut stream = connect();
        stream.write_all(&framed(json.as_bytes())).unwrap();
        let (tag, payload) = read_raw_response(&mut stream);
        assert_eq!(tag, "Error", "{payload}");
        assert!(payload.contains(why), "{payload}");
    }

    // Binary, after a v3 Hello: tag 9 with trace_id 0, parent_span 0 and
    // no spans, nested, around a bare Fetch (tag 3).
    let mut stream = connect();
    stream
        .write_all(&raw_frame(&Request::Hello {
            version: None,
            min_version: Some(3),
            max_version: Some(3),
            client: "nester".into(),
        }))
        .unwrap();
    let (tag, _) = read_raw_response(&mut stream);
    assert_eq!(tag, "Hello");
    let mut binary = [9u8, 0, 0, 0].repeat(DEPTH);
    binary.push(3);
    stream.write_all(&framed(&binary)).unwrap();
    let payload = read_raw_payload(&mut stream);
    assert_eq!(response_wire_kind(&payload), Some("Error"));

    let (_, summary) = run_session(handle.addr(), "after-nesting", vec![0.5, 0.5]);
    assert!(summary.iterations > 0);
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Protocol-v3 binary wire format: encode→decode is the identity on
// arbitrary messages, and a JSON-pinned v2 client walks the same tuning
// trajectory as a binary v3 client — the encoding changes bytes, never
// behavior.

mod wire_equivalence {
    use super::*;
    use harmony_net::protocol::{Response, RunSummary, SensitivityEntry, WireSpan, WireTrace};
    use harmony_net::wire::{from_bytes, to_bytes};
    use proptest::prelude::*;

    fn arb_bool() -> impl Strategy<Value = bool> {
        (0u8..2).prop_map(|b| b == 1)
    }

    fn arb_u32() -> impl Strategy<Value = u32> {
        0u32..u32::MAX
    }

    fn arb_u64() -> impl Strategy<Value = u64> {
        0u64..u64::MAX
    }

    fn arb_i64() -> impl Strategy<Value = i64> {
        i64::MIN..i64::MAX
    }

    /// `Option<T>` over any strategy (the vendored proptest has no
    /// `prop::option`), biased 50/50 so `None`-heavy `Hello`s appear.
    fn opt<T: Clone + 'static>(
        some: impl Strategy<Value = T> + 'static,
    ) -> impl Strategy<Value = Option<T>> {
        prop_oneof![Just(None), some.prop_map(Some)]
    }

    /// Finite floats plus signed infinities. `NaN` is excluded only
    /// because `PartialEq` can't witness its round trip (`NaN != NaN`);
    /// the codec's own unit tests cover it bit-exactly.
    fn arb_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::MAX),
            Just(f64::MIN_POSITIVE),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            -1e12f64..1e12f64,
        ]
    }

    /// Printable ASCII plus some multi-byte UTF-8, small enough to keep
    /// cases fast.
    fn arb_string() -> impl Strategy<Value = String> {
        prop_oneof![".{0,12}", "[a-zé✓° ]{1,8}"]
    }

    /// A valid parameter space: int parameters with consistent bounds,
    /// categorical parameters with in-range defaults, unique names.
    fn arb_space() -> impl Strategy<Value = ParameterSpace> {
        let int_param = (-100i64..100, 0i64..200, 1i64..5, 0u8..=100)
            .prop_map(|(min, width, step, frac)| (min, min + width, step, frac));
        let categorical = (prop::collection::vec(arb_string(), 1..4), 0u8..=100);
        prop::collection::vec(
            prop_oneof![
                int_param.prop_map(|v| (Some(v), None)),
                categorical.prop_map(|v| (None, Some(v))),
            ],
            1..4,
        )
        .prop_map(|params| {
            let params = params
                .into_iter()
                .enumerate()
                .map(|(i, p)| match p {
                    (Some((min, max, step, frac)), _) => {
                        // A default on the grid, interpolated into the
                        // bounds so it is always valid.
                        let default = min + (max - min) * i64::from(frac) / 100;
                        ParamDef::int(format!("p{i}"), min, max, default, step)
                    }
                    (_, Some((labels, frac))) => {
                        let default = usize::from(frac) * (labels.len() - 1) / 100;
                        ParamDef::categorical(format!("p{i}"), labels, default)
                    }
                    _ => unreachable!(),
                })
                .collect::<Vec<_>>();
            ParameterSpace::new(params).expect("generated space is valid")
        })
    }

    fn arb_space_spec() -> impl Strategy<Value = SpaceSpec> {
        prop_oneof![
            arb_string().prop_map(SpaceSpec::Rsl),
            arb_space().prop_map(SpaceSpec::Explicit),
        ]
    }

    fn arb_span() -> impl Strategy<Value = WireSpan> {
        // Nested tuples: the vendored proptest stops at 6-element ones.
        (
            (arb_u64(), arb_u64(), arb_string(), arb_string()),
            (arb_u64(), arb_u64(), arb_bool()),
        )
            .prop_map(|((id, parent, stage, detail), (start_us, end_us, error))| {
                WireSpan {
                    id,
                    parent,
                    stage,
                    detail,
                    start_us,
                    end_us,
                    error,
                }
            })
    }

    /// Every bare `Request` variant, `None`-heavy `Hello`s included.
    fn arb_bare_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            (opt(arb_u32()), opt(arb_u32()), opt(arb_u32()), arb_string(),).prop_map(
                |(version, min_version, max_version, client)| {
                    Request::Hello {
                        version,
                        min_version,
                        max_version,
                        client,
                    }
                }
            ),
            (
                arb_space_spec(),
                arb_string(),
                prop::collection::vec(arb_f64(), 0..4),
                opt(0usize..10_000),
                opt(arb_string()),
            )
                .prop_map(|(space, label, characteristics, max_iterations, engine)| {
                    Request::SessionStart {
                        space,
                        label,
                        characteristics,
                        max_iterations,
                        engine,
                    }
                },),
            arb_string().prop_map(|token| Request::Resume { token }),
            Just(Request::Fetch),
            (arb_f64(), opt(arb_u64()))
                .prop_map(|(performance, seq)| Request::Report { performance, seq }),
            Just(Request::SessionEnd),
            Just(Request::Sensitivity),
            Just(Request::DbQuery),
            Just(Request::Stats),
            Just(Request::TraceDump),
        ]
    }

    /// Bare variants plus the `Traced{…}` wrapper around any of them.
    fn arb_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            arb_bare_request(),
            arb_bare_request(),
            arb_bare_request(),
            (
                arb_u64(),
                arb_u64(),
                prop::collection::vec(arb_span(), 0..3),
                arb_bare_request(),
            )
                .prop_map(|(trace_id, parent_span, spans, request)| Request::Traced {
                    trace_id,
                    parent_span,
                    spans,
                    request: Box::new(request),
                }),
        ]
    }

    /// Every `Response` variant.
    fn arb_response() -> impl Strategy<Value = Response> {
        prop_oneof![
            (arb_u32(), arb_string())
                .prop_map(|(version, server)| Response::Hello { version, server }),
            (
                arb_space(),
                opt(arb_string()),
                0usize..10_000,
                opt(arb_string()),
            )
                .prop_map(
                    |(space, trained_from, training_iterations, session_token)| {
                        Response::SessionStarted {
                            space,
                            trained_from,
                            training_iterations,
                            session_token,
                        }
                    }
                ),
            (0usize..10_000, arb_u64(), arb_bool()).prop_map(|(iteration, next_seq, done)| {
                Response::Resumed {
                    iteration,
                    next_seq,
                    done,
                }
            }),
            Just(Response::Draining),
            (prop::collection::vec(arb_i64(), 0..4), 0usize..10_000)
                .prop_map(|(values, iteration)| Response::Config { values, iteration }),
            Just(Response::Done),
            Just(Response::Reported),
            (
                prop::collection::vec(arb_i64(), 0..4),
                arb_f64(),
                0usize..10_000,
                arb_bool(),
            )
                .prop_map(|(values, performance, iterations, converged)| {
                    Response::SessionSummary {
                        values,
                        performance,
                        iterations,
                        converged,
                    }
                }),
            prop::collection::vec(
                (0usize..16, arb_string(), arb_f64(), arb_i64()).prop_map(
                    |(index, name, sensitivity, best_value)| SensitivityEntry {
                        index,
                        name,
                        sensitivity,
                        best_value,
                    }
                ),
                0..3,
            )
            .prop_map(|entries| Response::Sensitivity { entries }),
            prop::collection::vec(
                (
                    arb_string(),
                    prop::collection::vec(arb_f64(), 0..3),
                    0usize..1000,
                    opt(arb_f64()),
                )
                    .prop_map(
                        |(label, characteristics, records, best_performance)| {
                            RunSummary {
                                label,
                                characteristics,
                                records,
                                best_performance,
                            }
                        }
                    ),
                0..3,
            )
            .prop_map(|runs| Response::Runs { runs }),
            arb_string().prop_map(|text| Response::Stats { text }),
            prop::collection::vec(
                (
                    arb_u64(),
                    arb_bool(),
                    prop::collection::vec(arb_span(), 0..3)
                )
                    .prop_map(|(trace_id, complete, spans)| WireTrace {
                        trace_id,
                        complete,
                        spans,
                    }),
                0..3,
            )
            .prop_map(|traces| Response::TraceDump { traces }),
            arb_string().prop_map(|message| Response::Error { message }),
        ]
    }

    proptest! {
        #[test]
        fn binary_request_round_trip_is_identity(request in arb_request()) {
            let bytes = to_bytes(&request);
            let back: Request = from_bytes(&bytes).unwrap();
            prop_assert_eq!(back, request);
        }

        #[test]
        fn binary_response_round_trip_is_identity(response in arb_response()) {
            let bytes = to_bytes(&response);
            let back: Response = from_bytes(&bytes).unwrap();
            prop_assert_eq!(back, response);
        }

        #[test]
        fn hostile_request_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..200)) {
            // Decoding arbitrary garbage must always return, never
            // panic or loop: Ok on the rare valid encoding, a protocol
            // error otherwise. What decodes is canonical: it encodes
            // back to exactly the bytes it came from.
            if let Ok(request) = from_bytes::<Request>(&bytes) {
                prop_assert_eq!(to_bytes(&request), bytes.clone());
            }
            if let Ok(response) = from_bytes::<Response>(&bytes) {
                prop_assert_eq!(to_bytes(&response), bytes);
            }
        }
    }

    /// One edit of a valid encoding: overwrite a byte, or insert one
    /// (at the end, too). Near-misses reach far deeper into the decoder
    /// than uniform garbage does, and the bytes that mean something to
    /// it (zero, one, a varint continuation, the `Traced` tag) come up
    /// often.
    fn arb_edit() -> impl Strategy<Value = (bool, usize, u8)> {
        let byte = prop_oneof![Just(0u8), Just(1), Just(0x80), Just(9), 0u8..=255];
        (arb_bool(), 0usize..4096, byte)
    }

    fn edit(mut bytes: Vec<u8>, (insert, at, byte): (bool, usize, u8)) -> Vec<u8> {
        if insert || bytes.is_empty() {
            bytes.insert(at % (bytes.len() + 1), byte);
        } else {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn edited_requests_decode_canonically_or_not_at_all(
            request in arb_request(),
            change in arb_edit(),
        ) {
            let bytes = edit(to_bytes(&request), change);
            if let Ok(decoded) = from_bytes::<Request>(&bytes) {
                prop_assert_eq!(to_bytes(&decoded), bytes);
            }
        }

        #[test]
        fn edited_responses_decode_canonically_or_not_at_all(
            response in arb_response(),
            change in arb_edit(),
        ) {
            let bytes = edit(to_bytes(&response), change);
            if let Ok(decoded) = from_bytes::<Response>(&bytes) {
                prop_assert_eq!(to_bytes(&decoded), bytes);
            }
        }
    }
}

#[test]
fn v2_json_and_v3_binary_clients_walk_identical_trajectories() {
    // The same session driven over JSON (client pinned at protocol v2)
    // and over the binary v3 format against identical fresh daemons must
    // propose the same configurations in the same order and agree on
    // the summary: the wire encoding must never leak into tuning
    // behavior. f64 performance values cross the wire bit-exactly in
    // both formats, so the comparison is exact, not approximate.
    let trajectory = |max_version: u32| {
        let handle = TuningDaemon::start(daemon_config(None)).unwrap();
        let mut proposals: Vec<Vec<i64>> = Vec::new();
        let mut client = Client::builder(handle.addr())
            .max_protocol_version(max_version)
            .connect()
            .unwrap();
        assert_eq!(client.protocol_version(), max_version);
        let expected = if max_version >= 3 {
            harmony_net::WireFormat::Binary
        } else {
            harmony_net::WireFormat::Json
        };
        assert_eq!(client.wire_format(), expected);
        let (started, summary) = client
            .tune_with(
                SpaceSpec::Explicit(space()),
                "wire-parity",
                vec![0.4, 0.6],
                None,
                |cfg| {
                    proposals.push(cfg.values().to_vec());
                    Ok::<f64, NetError>(perf(cfg))
                },
            )
            .unwrap();
        handle.shutdown();
        (
            proposals,
            started.training_iterations,
            summary.best.values().to_vec(),
            summary.performance.to_bits(),
            summary.iterations,
            summary.converged,
        )
    };
    let json = trajectory(2);
    let binary = trajectory(3);
    assert_eq!(json, binary, "wire format must not change tuning behavior");
    assert!(!json.0.is_empty());
}

#[test]
fn binary_frames_and_bytes_are_accounted() {
    let handle = TuningDaemon::start(daemon_config(None)).unwrap();
    let before = stats_snapshot(handle.addr());
    run_session(handle.addr(), "binary-accounting", vec![77.0, 3.0]);
    let after = stats_snapshot(handle.addr());

    // The default client negotiates v3, so the session's frames land on
    // the binary counters (>= : the registry is process-global).
    let frames = "harmony_net_frames_binary_total";
    assert!(
        series(&after, frames) >= series(&before, frames) + 10.0,
        "a whole session must count its binary frames"
    );
    // Bytes-saved pair: the session's binary payload bytes land on the
    // `format="binary"` series (the wire-level JSON-vs-binary size
    // comparison itself is a harmony-net unit test; here we only prove
    // the accounting is wired through the daemon).
    let bin_bytes = series(&after, "harmony_net_frame_bytes_total{format=\"binary\"}")
        - series(&before, "harmony_net_frame_bytes_total{format=\"binary\"}");
    let bin_frames = series(&after, frames) - series(&before, frames);
    assert!(bin_bytes > 0.0, "binary bytes must be accounted");
    assert!(
        bin_bytes / bin_frames >= 2.0,
        "frames carry at least a tag byte plus a payload"
    );
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Client pipelining: `report()` sends the next `Fetch` in the same write,
// and `fetch()` only reads its answer. The daemon sees the requests a
// one-at-a-time client sends, in the same order.

/// One session's walk: every (configuration, performance bits) pair in
/// order, then the summary's best values, best bits, length and
/// convergence.
type Walk = (Vec<(Vec<i64>, u64)>, Vec<i64>, u64, usize, bool);

const PARITY_CHARACTERISTICS: [f64; 2] = [0.35, 0.65];

/// Drive a whole session through `client`, asking for a sensitivity
/// report after every report when `probe` is set.
fn client_walk(client: &mut Client, probe: bool) -> Walk {
    client
        .start_session(
            SpaceSpec::Explicit(space()),
            "parity",
            PARITY_CHARACTERISTICS.to_vec(),
            None,
        )
        .unwrap();
    let mut steps = Vec::new();
    while let Some(p) = client.fetch().unwrap() {
        let y = perf(&p.values);
        steps.push((p.values.values().to_vec(), y.to_bits()));
        client.report(y).unwrap();
        if probe {
            assert!(!client.sensitivity().unwrap().is_empty());
        }
    }
    let s = client.end_session().unwrap();
    let best = s.best.values().to_vec();
    (
        steps,
        best,
        s.performance.to_bits(),
        s.iterations,
        s.converged,
    )
}

/// The same session as raw v1 frames, one request at a time: each
/// response read before the next request is written.
fn raw_walk(addr: std::net::SocketAddr) -> Walk {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut rt = |req: &Request| -> Response {
        write_frame(&mut stream, req).unwrap();
        read_frame(&mut stream).unwrap()
    };
    let start = Request::SessionStart {
        space: SpaceSpec::Explicit(space()),
        label: "parity".into(),
        characteristics: PARITY_CHARACTERISTICS.to_vec(),
        max_iterations: None,
        engine: None,
    };
    assert!(matches!(rt(&start), Response::SessionStarted { .. }));
    let mut steps = Vec::new();
    while let Response::Config { values, .. } = rt(&Request::Fetch) {
        let y = perf(&Configuration::new(values.clone()));
        steps.push((values, y.to_bits()));
        let report = Request::Report {
            performance: y,
            seq: None,
        };
        assert!(matches!(rt(&report), Response::Reported));
    }
    match rt(&Request::SessionEnd) {
        Response::SessionSummary {
            values,
            performance,
            iterations,
            converged,
        } => (steps, values, performance.to_bits(), iterations, converged),
        other => panic!("expected SessionSummary, got {other:?}"),
    }
}

/// Each run on a fresh daemon, so no session warm-starts from another.
fn on_fresh_daemon<T>(run: impl FnOnce(std::net::SocketAddr) -> T) -> T {
    let handle = TuningDaemon::start(daemon_config(None)).unwrap();
    let out = run(handle.addr());
    handle.shutdown();
    out
}

/// Pipelining changes no trajectory: a client that queries the session
/// between `report()` and `fetch()` (dropping the owed answer and asking
/// again), a v1 client (no sequence numbers, no envelopes) and a traced
/// client (each Fetch in its own envelope) walk exactly the path of a
/// raw client that waits for every answer. Run alone: tracing is
/// process-global.
#[test]
fn pipelining_clients_walk_the_one_request_at_a_time_trajectory() {
    alone(
        "pipelining_clients_walk_the_one_request_at_a_time_trajectory",
        || {
            let reference = on_fresh_daemon(raw_walk);
            assert!(reference.0.len() > 5, "the session must explore");
            let probed =
                on_fresh_daemon(|addr| client_walk(&mut Client::connect(addr).unwrap(), true));
            assert_eq!(probed, reference, "a query between report and fetch");
            let v1 = on_fresh_daemon(|addr| {
                let mut client = Client::builder(addr)
                    .max_protocol_version(1)
                    .connect()
                    .unwrap();
                assert_eq!(client.protocol_version(), 1);
                client_walk(&mut client, false)
            });
            assert_eq!(v1, reference, "a v1 client");
            let traced = on_fresh_daemon(|addr| {
                let mut client = Client::builder(addr).tracing(true).connect().unwrap();
                client_walk(&mut client, false)
            });
            assert_eq!(traced, reference, "a traced client");
        },
    );
}

/// A refused report leaves its proposal outstanding, and the Fetch that
/// travelled with it brings that same proposal back.
#[test]
fn a_refused_report_leaves_the_same_proposal_to_fetch() {
    let handle = TuningDaemon::start(daemon_config(None)).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .start_session(
            SpaceSpec::Explicit(space()),
            "refused",
            vec![0.6, 0.4],
            None,
        )
        .unwrap();
    let first = client.fetch().unwrap().expect("budget left");
    match client.report(f64::NAN).unwrap_err() {
        NetError::Remote(message) => assert!(message.contains("finite"), "{message}"),
        other => panic!("expected a refusal, got {other}"),
    }
    let again = client.fetch().unwrap().expect("budget left");
    assert_eq!(again.values, first.values, "the proposal must repeat");
    assert_eq!(again.iteration, first.iteration);
    client.report(perf(&again.values)).unwrap();
    let next = client.fetch().unwrap().expect("budget left");
    assert_eq!(next.iteration, first.iteration + 1);
    handle.shutdown();
}

/// One session on one v3 connection: the daemon serves exactly the
/// requests a one-at-a-time client sends — N+1 Fetches, N Reports —
/// and every Fetch but the first arrives behind its Report. Run alone:
/// the counters are process-global.
#[test]
fn each_fetch_rides_behind_its_report() {
    alone("each_fetch_rides_behind_its_report", || {
        let handle = TuningDaemon::start(daemon_config(None)).unwrap();
        let before = stats_snapshot(handle.addr());
        let (_, summary) = run_session(handle.addr(), "pipelined", vec![0.2, 0.8]);
        let after = stats_snapshot(handle.addr());
        let delta = |key: &str| series(&after, key) - series(&before, key);
        let n = summary.iterations as f64;
        assert!(n > 5.0, "the session must explore");
        assert_eq!(delta("harmony_net_requests_total{type=\"Fetch\"}"), n + 1.0);
        assert_eq!(delta("harmony_net_requests_total{type=\"Report\"}"), n);
        assert_eq!(delta("harmony_net_reactor_pipelined_requests_total"), n);
        handle.shutdown();
    });
}

/// A remote session moves its engine's series like an in-process run:
/// one evaluation per observed report, one proposal per new
/// configuration (a repeated Fetch is not one), and the converged
/// session lands in the convergence histogram. Run alone: the series are
/// process-global.
#[test]
fn a_remote_session_moves_its_engine_series() {
    alone("a_remote_session_moves_its_engine_series", || {
        let handle = TuningDaemon::start(daemon_config(None)).unwrap();
        let before = stats_snapshot(handle.addr());
        let (_, summary) = run_session(handle.addr(), "engine-series", vec![0.7, 0.3]);
        let after = stats_snapshot(handle.addr());
        let delta = |key: &str| series(&after, key) - series(&before, key);
        let n = summary.iterations as f64;
        assert!(n > 5.0, "the session must explore");
        assert_eq!(delta("harmony_session_iterations_total"), n);
        assert_eq!(
            delta("harmony_engine_evaluations_total{engine=\"simplex\"}"),
            delta("harmony_session_iterations_total"),
        );
        assert_eq!(
            delta("harmony_engine_proposals_total{engine=\"simplex\"}"),
            n
        );
        assert!(summary.converged, "the session must converge");
        assert_eq!(delta("harmony_engine_converged_iterations_count"), 1.0);
        assert_eq!(delta("harmony_engine_converged_iterations_sum"), n);
        handle.shutdown();
    });
}
