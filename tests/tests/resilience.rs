//! Resilience suite: sessions survive cut, truncated, delayed, and
//! withheld frames without perturbing the search.
//!
//! The load-bearing property is *bit-identical continuation*: a session
//! interrupted N times by the fault proxy must walk exactly the simplex
//! trajectory of an uninterrupted run — same configurations in the same
//! order, same iteration count, same best performance to the last bit.
//! Anything less means faults leak into the science.
//!
//! Each faulted run uses its own daemon (never a shared one): a shared
//! experience database would warm-start the second session and the
//! trajectories would differ for reasons that have nothing to do with
//! faults.

use harmony::prelude::*;
use harmony_net::client::{Client, RetryPolicy, SessionSummary};
use harmony_net::codec::{read_frame, write_frame};
use harmony_net::fault::{FaultKind, FaultPlan, FaultProxy};
use harmony_net::protocol::{Request, Response, SpaceSpec, MIN_SUPPORTED_VERSION};
use harmony_net::server::{DaemonConfig, DaemonHandle, TuningDaemon};
use harmony_net::NetError;
use proptest::prelude::*;
use std::collections::HashSet;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

const RSL: &str =
    "{ harmonyBundle cache { int {1 20 1} }}\n{ harmonyBundle threads { int {1 20 1} }}";

/// Deterministic synthetic objective, optimum at cache=14, threads=6.
fn perf(values: &[i64]) -> f64 {
    let c = values[0] as f64;
    let t = values[1] as f64;
    200.0 - (c - 14.0).powi(2) - 2.0 * (t - 6.0).powi(2)
}

fn daemon(db: Option<PathBuf>) -> DaemonHandle {
    TuningDaemon::start(DaemonConfig {
        db_path: db,
        tuning: TuningOptions::improved().with_max_iterations(40),
        ..DaemonConfig::default()
    })
    .expect("daemon starts")
}

/// Drive one whole session, recording the exact trajectory.
fn drive(client: &mut Client, label: &str) -> (Vec<(Vec<i64>, u64)>, SessionSummary) {
    client
        .start_session(SpaceSpec::Rsl(RSL.into()), label, vec![0.5, 0.5], Some(40))
        .expect("session starts");
    let mut trace = Vec::new();
    while let Some(p) = client.fetch().expect("fetch") {
        let y = perf(p.values.values());
        trace.push((p.values.values().to_vec(), y.to_bits()));
        client.report(y).expect("report");
    }
    let summary = client.end_session().expect("session ends");
    (trace, summary)
}

/// A raw protocol-v2 connection (for driving resumed sessions by hand).
fn hello_v2(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        &Request::Hello {
            version: None,
            min_version: Some(MIN_SUPPORTED_VERSION),
            // Cap at v2: this raw socket keeps speaking JSON (v3 would
            // switch the connection to binary framing).
            max_version: Some(2),
            client: "resilience test".into(),
        },
    )
    .unwrap();
    match read_frame::<_, Response>(&mut stream).unwrap() {
        Response::Hello { version, .. } => assert_eq!(version, 2),
        other => panic!("expected Hello, got {other:?}"),
    }
    stream
}

fn round_trip(stream: &mut TcpStream, request: &Request) -> Response {
    write_frame(stream, request).unwrap();
    read_frame(stream).unwrap()
}

/// All four fault kinds on one session: the trajectory must not notice.
#[test]
fn faulted_session_walks_the_unfaulted_trajectory_bit_for_bit() {
    let clean = daemon(None);
    let mut direct = Client::connect(clean.addr()).unwrap();
    let (clean_trace, clean_summary) = drive(&mut direct, "clean");
    clean.shutdown();
    assert!(clean_trace.len() > 10, "budget must be worth interrupting");

    let faulted = daemon(None);
    // Frame 0 is Hello, 1 SessionStart; then Fetch/Report alternate
    // (with Hello/Resume pairs inserted by every reconnect).
    let plan = FaultPlan::at([
        (3, FaultKind::CutBeforeForward),
        (9, FaultKind::CutBeforeResponse),
        (16, FaultKind::TruncateResponse),
        (24, FaultKind::DelayResponse(Duration::from_millis(600))),
    ]);
    let proxy = FaultProxy::start(faulted.addr(), plan).unwrap();
    let mut through = Client::builder(proxy.addr())
        .connect_timeout(Duration::from_secs(2))
        .request_deadline(Duration::from_millis(200))
        .retry(RetryPolicy::default().with_max_retries(10).with_seed(7))
        .connect()
        .unwrap();
    let (fault_trace, fault_summary) = drive(&mut through, "faulted");

    let kinds: HashSet<std::mem::Discriminant<FaultKind>> = proxy
        .injected()
        .iter()
        .map(|(_, k)| std::mem::discriminant(k))
        .collect();
    assert_eq!(kinds.len(), 4, "all four fault kinds must have fired");

    assert_eq!(clean_trace, fault_trace, "trajectory must be identical");
    assert_eq!(clean_summary.iterations, fault_summary.iterations);
    assert_eq!(
        clean_summary.best.values(),
        fault_summary.best.values(),
        "best configuration must match"
    );
    assert_eq!(
        clean_summary.performance.to_bits(),
        fault_summary.performance.to_bits(),
        "best performance must match to the bit"
    );
    assert_eq!(clean_summary.converged, fault_summary.converged);
    faulted.shutdown();
}

/// Drain parks the unfinished session to disk; a successor daemon honors
/// its token and the database ends up with every run — zero loss. The
/// parked session is warm-started from the completed one, so the rebuild
/// has to repeat the training stage to continue the exact trajectory.
#[test]
fn drain_parks_sessions_and_a_restarted_daemon_resumes_them() {
    let dir = std::env::temp_dir().join(format!("harmony-resilience-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("drain.json");
    let sessions = dir.join("drain.json.sessions");
    for leftover in [&db, &dir.join("drain.json.wal"), &sessions] {
        let _ = std::fs::remove_file(leftover);
    }

    // The reference: the same two sessions on a daemon nobody drains.
    let undisturbed = daemon(None);
    let mut reference = Client::connect(undisturbed.addr()).unwrap();
    drive(&mut reference, "completed");
    let (clean_trajectory, clean_summary) = drive(&mut reference, "interrupted");
    drop(reference);
    undisturbed.shutdown();

    let first = daemon(Some(db.clone()));
    // One completed run...
    let mut done = Client::connect(first.addr()).unwrap();
    drive(&mut done, "completed");
    drop(done);
    // ...and one, trained from it, left mid-tune when the drain begins.
    let mut mid = Client::builder(first.addr())
        .retry(RetryPolicy::none())
        .connect()
        .unwrap();
    let started = mid
        .start_session(
            SpaceSpec::Rsl(RSL.into()),
            "interrupted",
            vec![0.5, 0.5],
            Some(40),
        )
        .unwrap();
    assert_eq!(started.trained_from.as_deref(), Some("completed"));
    assert!(
        started.training_iterations > 0,
        "the session is warm-started"
    );
    let token = mid.session_token().expect("v2 token").to_string();
    let mut trajectory = Vec::new();
    for _ in 0..5 {
        let p = mid.fetch().unwrap().unwrap();
        let y = perf(p.values.values());
        trajectory.push((p.values.values().to_vec(), y.to_bits()));
        mid.report(y).unwrap();
    }
    let measured = trajectory.len() as u64;
    first.drain();
    // The last report sent the next Fetch along with it, answered before
    // the drain began: the first request sent after the drain is the
    // next report.
    let p = mid.fetch().unwrap().unwrap();
    let err = mid.report(perf(p.values.values())).unwrap_err();
    assert!(matches!(err, NetError::Draining), "{err}");
    assert!(err.is_retryable(), "drain must be survivable");
    drop(mid);
    assert_eq!(first.db_runs(), 1, "only the completed run is recorded");
    first.shutdown();

    assert!(
        sessions.exists(),
        "shutdown must write the parked session next to the db"
    );
    let on_disk = harmony::history::ExperienceDb::load(&db).unwrap();
    assert_eq!(on_disk.len(), 1, "drain lost a run or invented one");
    // A record from before sessions were persisted by replay (the kernel
    // serialized whole under `session`) sits in the same file: it must
    // be refused on its own, not take the readable session down with it.
    let written = std::fs::read_to_string(&sessions).unwrap();
    let old_shape = r#"{"token":"hs-old-0","session":{"space":[]},"label":"lost","characteristics":[],"prior":null,"next_seq":0}"#;
    std::fs::write(&sessions, format!("[{old_shape},{}", &written[1..])).unwrap();

    // The successor daemon consumes the sessions file and honors the
    // token exactly where the session stopped.
    let second = daemon(Some(db.clone()));
    assert!(
        !sessions.exists(),
        "the sessions file is consumed at startup"
    );
    let mut stream = hello_v2(second.addr());
    let lost = Request::Resume {
        token: "hs-old-0".into(),
    };
    assert!(matches!(
        round_trip(&mut stream, &lost),
        Response::Error { .. }
    ));
    let (iteration, mut seq) = match round_trip(&mut stream, &Request::Resume { token }) {
        Response::Resumed {
            iteration,
            next_seq,
            done,
        } => {
            assert!(!done);
            (iteration, next_seq)
        }
        other => panic!("expected Resumed, got {other:?}"),
    };
    assert_eq!(iteration as u64, measured, "no observation may be lost");
    assert_eq!(seq, measured, "sequence numbering survives the restart");
    loop {
        match round_trip(&mut stream, &Request::Fetch) {
            Response::Config { values, .. } => {
                let y = perf(&values);
                match round_trip(
                    &mut stream,
                    &Request::Report {
                        performance: y,
                        seq: Some(seq),
                    },
                ) {
                    Response::Reported => seq += 1,
                    other => panic!("expected Reported, got {other:?}"),
                }
                trajectory.push((values, y.to_bits()));
            }
            Response::Done => break,
            other => panic!("expected Config or Done, got {other:?}"),
        }
    }
    assert!(
        trajectory.len() as u64 > measured,
        "the session kept tuning"
    );
    assert_eq!(
        trajectory, clean_trajectory,
        "the restart leaked into the warm-started trajectory"
    );
    match round_trip(&mut stream, &Request::SessionEnd) {
        Response::SessionSummary {
            performance,
            iterations,
            ..
        } => {
            assert_eq!(iterations, clean_summary.iterations);
            assert_eq!(performance.to_bits(), clean_summary.performance.to_bits());
        }
        other => panic!("expected SessionSummary, got {other:?}"),
    }
    assert_eq!(second.db_runs(), 2, "both runs reach the database");
    second.shutdown();
}

/// A v1 client (bare `version` field, seq-less reports, no token) still
/// completes a whole session against the v2 daemon.
#[test]
fn v1_client_completes_a_session_against_a_v2_daemon() {
    let handle = daemon(None);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    write_frame(
        &mut stream,
        &Request::Hello {
            version: Some(1),
            min_version: None,
            max_version: None,
            client: "v1".into(),
        },
    )
    .unwrap();
    match read_frame::<_, Response>(&mut stream).unwrap() {
        Response::Hello { version, .. } => assert_eq!(version, 1),
        other => panic!("expected Hello, got {other:?}"),
    }
    match round_trip(
        &mut stream,
        &Request::SessionStart {
            space: SpaceSpec::Rsl(RSL.into()),
            label: "v1".into(),
            characteristics: vec![0.5, 0.5],
            max_iterations: Some(40),
            engine: None,
        },
    ) {
        Response::SessionStarted { session_token, .. } => {
            assert!(session_token.is_none(), "v1 gets no resume token")
        }
        other => panic!("expected SessionStarted, got {other:?}"),
    }
    loop {
        match round_trip(&mut stream, &Request::Fetch) {
            Response::Config { values, .. } => {
                let y = perf(&values);
                match round_trip(
                    &mut stream,
                    &Request::Report {
                        performance: y,
                        seq: None,
                    },
                ) {
                    Response::Reported => {}
                    other => panic!("expected Reported, got {other:?}"),
                }
            }
            Response::Done => break,
            other => panic!("expected Config or Done, got {other:?}"),
        }
    }
    match round_trip(&mut stream, &Request::SessionEnd) {
        Response::SessionSummary { performance, .. } => {
            assert!(performance > 150.0, "v1 session found a decent optimum")
        }
        other => panic!("expected SessionSummary, got {other:?}"),
    }
    assert_eq!(handle.db_runs(), 1);
    handle.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any seeded fault schedule, the interrupted session ends at
    /// the same best configuration after the same number of iterations
    /// as an uninterrupted run.
    #[test]
    fn seeded_fault_schedules_never_change_the_outcome(seed in 1u64..10_000) {
        let clean = daemon(None);
        let mut direct = Client::connect(clean.addr()).unwrap();
        let (_, clean_summary) = drive(&mut direct, "clean");
        clean.shutdown();

        let faulted = daemon(None);
        let proxy = FaultProxy::start(faulted.addr(), FaultPlan::seeded(seed, 3)).unwrap();
        let mut through = Client::builder(proxy.addr())
            .connect_timeout(Duration::from_secs(2))
            .retry(RetryPolicy::default().with_max_retries(10).with_seed(seed))
            .connect()
            .unwrap();
        let (_, fault_summary) = drive(&mut through, "faulted");
        prop_assert_eq!(clean_summary.iterations, fault_summary.iterations);
        prop_assert_eq!(clean_summary.best.values(), fault_summary.best.values());
        prop_assert_eq!(
            clean_summary.performance.to_bits(),
            fault_summary.performance.to_bits()
        );
        faulted.shutdown();
    }
}
