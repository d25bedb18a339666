//! End-to-end distributed tracing: a traced remote session leaves a
//! complete client → daemon → executor span tree in the daemon's flight
//! recorder, raw v1 clients coexist with a tracing daemon, and — the
//! load-bearing property — tracing is *inert*: trajectories are
//! bit-identical with tracing on, off, or interleaved with faults.
//!
//! The trace recorder is process-global and tests in this binary run in
//! parallel, so every assertion filters dumped traces by this test's
//! own session label (carried in `classify`/`wal.append` span details)
//! instead of assuming the dump holds only its own traces.

use harmony::prelude::*;
use harmony_exec::Executor;
use harmony_net::client::{Client, RetryPolicy, SessionSummary};
use harmony_net::codec::{read_frame, write_frame};
use harmony_net::fault::{FaultKind, FaultPlan, FaultProxy};
use harmony_net::protocol::{Request, Response, SpaceSpec, WireTrace};
use harmony_net::server::{DaemonConfig, DaemonHandle, TuningDaemon};
use harmony_obs::trace::stage;
use std::collections::HashSet;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

const RSL: &str =
    "{ harmonyBundle cache { int {1 20 1} }}\n{ harmonyBundle threads { int {1 20 1} }}";

/// Deterministic synthetic objective, optimum at cache=14, threads=6.
fn perf(values: &[i64]) -> f64 {
    let c = values[0] as f64;
    let t = values[1] as f64;
    200.0 - (c - 14.0).powi(2) - 2.0 * (t - 6.0).powi(2)
}

fn daemon(tracing: bool) -> DaemonHandle {
    TuningDaemon::start(DaemonConfig {
        tracing,
        tuning: TuningOptions::improved().with_max_iterations(30),
        ..DaemonConfig::default()
    })
    .expect("daemon starts")
}

/// Drive one whole session, recording the exact trajectory. Evaluations
/// go through a parallel `Executor` under the client's `eval` span, so a
/// traced run exercises the queue-wait attribution path; untraced runs
/// take the identical code path with tracing inert.
fn drive(client: &mut Client, label: &str) -> (Vec<(Vec<i64>, u64)>, SessionSummary) {
    client
        .start_session(SpaceSpec::Rsl(RSL.into()), label, vec![0.5, 0.5], Some(30))
        .expect("session starts");
    let executor = Executor::new(2);
    let mut trace = Vec::new();
    while let Some(p) = client.fetch().expect("fetch") {
        let ys = client.traced(stage::EVAL, "measure", || {
            executor.evaluate_batch(std::slice::from_ref(&p.values), &|cfg| perf(cfg.values()))
        });
        trace.push((p.values.values().to_vec(), ys[0].to_bits()));
        client.report(ys[0]).expect("report");
    }
    let summary = client.end_session().expect("session ends");
    (trace, summary)
}

/// The dumped trace belonging to `label`'s session: the one whose
/// `classify` span names the label.
fn session_trace<'a>(dump: &'a [WireTrace], label: &str) -> Option<&'a WireTrace> {
    dump.iter().find(|t| {
        t.spans
            .iter()
            .any(|s| s.stage == stage::CLASSIFY && s.detail == label)
    })
}

#[test]
fn traced_session_leaves_a_complete_span_tree() {
    let handle = daemon(true);
    let mut client = Client::builder(handle.addr())
        .tracing(true)
        .connect()
        .unwrap();
    let label = "trace-flow-tree";
    let (trajectory, _) = drive(&mut client, label);
    assert!(trajectory.len() > 5, "session must actually explore");

    let dump = client.trace_dump().unwrap();
    let t = session_trace(&dump, label).expect("session trace retained");
    assert!(t.complete, "SessionEnd seals the trace");

    // Structural integrity: exactly one root, and every parent edge
    // lands on a span inside the same trace (no dangling references).
    let ids: HashSet<u64> = t.spans.iter().map(|s| s.id).collect();
    let roots: Vec<_> = t.spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "one root: {:?}", roots);
    assert_eq!(roots[0].stage, stage::SESSION);
    for s in &t.spans {
        assert!(
            s.parent == 0 || ids.contains(&s.parent),
            "span {} ({}) has dangling parent {}",
            s.id,
            s.stage,
            s.parent
        );
        assert!(s.end_us >= s.start_us, "span {} runs backwards", s.id);
    }

    // Full-path coverage: client rpc and eval, daemon read/serve/
    // classify/wal, executor queue-wait and run.
    let stages: HashSet<&str> = t.spans.iter().map(|s| s.stage.as_str()).collect();
    for required in [
        stage::SESSION,
        stage::NET_RPC,
        stage::NET_READ,
        stage::SERVE,
        stage::CLASSIFY,
        stage::EVAL,
        stage::QUEUE_WAIT,
        stage::EXEC_RUN,
        stage::WAL_APPEND,
    ] {
        assert!(
            stages.contains(required.as_str()),
            "missing stage {required}: {stages:?}"
        );
    }
    // Every measured configuration waited in (and ran out of) the
    // executor's queue under the session's eval spans.
    let waits = t
        .spans
        .iter()
        .filter(|s| s.stage == stage::QUEUE_WAIT)
        .count();
    let runs = t
        .spans
        .iter()
        .filter(|s| s.stage == stage::EXEC_RUN)
        .count();
    assert_eq!(waits, trajectory.len(), "one queue-wait per evaluation");
    assert_eq!(runs, trajectory.len(), "one run per evaluation");
    handle.shutdown();
}

#[test]
fn warm_started_session_records_classify_and_warm_start_spans() {
    let handle = daemon(true);
    let label = "trace-flow-warm";
    let mut first = Client::builder(handle.addr())
        .tracing(true)
        .connect()
        .unwrap();
    drive(&mut first, label);
    drop(first);

    // Same label, same characteristics: the daemon classifies the new
    // session against the recorded run and warm-starts from it.
    let mut second = Client::builder(handle.addr())
        .tracing(true)
        .connect()
        .unwrap();
    second
        .start_session(SpaceSpec::Rsl(RSL.into()), label, vec![0.5, 0.5], Some(30))
        .unwrap();
    while let Some(p) = second.fetch().unwrap() {
        let y = perf(p.values.values());
        second.report(y).unwrap();
    }
    second.end_session().unwrap();

    let dump = second.trace_dump().unwrap();
    let warm = dump.iter().find(|t| {
        t.spans
            .iter()
            .any(|s| s.stage == stage::WARM_START && s.detail == label)
    });
    assert!(
        warm.is_some(),
        "second session should carry a warm_start span for {label}"
    );
    handle.shutdown();
}

/// A pre-Hello (v1-semantics) client driving a tracing daemon with raw
/// frames: every bare request gets a fresh root trace server-side, the
/// protocol never errors, and the trajectory matches a tracing-off
/// daemon bit for bit.
#[test]
fn raw_v1_client_on_a_tracing_daemon_is_untouched() {
    let label = "trace-flow-v1";
    let raw_drive = |addr: std::net::SocketAddr| -> (Vec<(Vec<i64>, u64)>, f64) {
        // No Hello at all: the server falls back to v1 semantics, and a
        // v1 client by definition never sends `Traced` wrappers.
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut rt = |req: &Request| -> Response {
            write_frame(&mut stream, req).unwrap();
            read_frame(&mut stream).unwrap()
        };
        match rt(&Request::SessionStart {
            space: SpaceSpec::Rsl(RSL.into()),
            label: label.into(),
            characteristics: vec![0.5, 0.5],
            max_iterations: Some(30),
            engine: None,
        }) {
            Response::SessionStarted { session_token, .. } => {
                assert!(session_token.is_none(), "v1 sessions have no tokens")
            }
            other => panic!("expected SessionStarted, got {other:?}"),
        }
        let mut trajectory = Vec::new();
        loop {
            match rt(&Request::Fetch) {
                Response::Config { values, .. } => {
                    let y = perf(&values);
                    trajectory.push((values, y.to_bits()));
                    match rt(&Request::Report {
                        performance: y,
                        seq: None,
                    }) {
                        Response::Reported => {}
                        other => panic!("expected Reported, got {other:?}"),
                    }
                }
                Response::Done => break,
                other => panic!("expected Config|Done, got {other:?}"),
            }
        }
        match rt(&Request::SessionEnd) {
            Response::SessionSummary { performance, .. } => (trajectory, performance),
            other => panic!("expected SessionSummary, got {other:?}"),
        }
    };

    let tracing = daemon(true);
    let (traced_trajectory, traced_best) = raw_drive(tracing.addr());
    // The daemon recorded fresh root traces for the bare requests, and
    // none of them hijacked the session into a foreign trace.
    let mut probe = Client::connect(tracing.addr()).unwrap();
    let dump = probe.trace_dump().unwrap();
    assert!(
        dump.iter()
            .flat_map(|t| t.spans.iter())
            .any(|s| s.stage == stage::SERVE),
        "bare requests still produce serve spans"
    );
    assert!(
        session_trace(&dump, label).is_none() || {
            // If the SessionStart's fresh root was retained, it must be
            // a single-request trace, not a session-spanning one.
            let t = session_trace(&dump, label).unwrap();
            !t.spans.iter().any(|s| s.stage == stage::EVAL)
        },
        "a v1 session must not accrete a client-spanning trace"
    );
    tracing.shutdown();

    let plain = daemon(false);
    let (plain_trajectory, plain_best) = raw_drive(plain.addr());
    plain.shutdown();

    assert_eq!(traced_trajectory, plain_trajectory, "trajectory perturbed");
    assert_eq!(traced_best.to_bits(), plain_best.to_bits());
}

/// The inertness guarantee at full strength: tracing on vs off walks
/// the exact same trajectory, bit for bit.
#[test]
fn tracing_on_and_off_walk_identical_trajectories() {
    let on = daemon(true);
    let mut traced = Client::builder(on.addr()).tracing(true).connect().unwrap();
    let (t_on, s_on) = drive(&mut traced, "trace-flow-inert");
    on.shutdown();

    let off = daemon(false);
    let mut bare = Client::connect(off.addr()).unwrap();
    let (t_off, s_off) = drive(&mut bare, "trace-flow-inert");
    off.shutdown();

    assert_eq!(t_on, t_off, "tracing perturbed the trajectory");
    assert_eq!(s_on.best.values(), s_off.best.values());
    assert_eq!(s_on.performance.to_bits(), s_off.performance.to_bits());
    assert_eq!(s_on.iterations, s_off.iterations);
    assert_eq!(s_on.converged, s_off.converged);
}

/// Tracing composes with the resilience machinery: a traced session
/// interrupted by the fault proxy still walks the clean untraced
/// trajectory, and its trace keeps a classify span despite reconnects.
/// The clean run carries its own label: when another test has enabled
/// the process-global recorder, the clean daemon's bare `SessionStart`
/// leaves a single-request trace with a `classify` span of its own,
/// which must not be mistaken for the faulted session's.
#[test]
fn traced_session_survives_faults_without_perturbing_the_trajectory() {
    let clean = daemon(false);
    let mut direct = Client::connect(clean.addr()).unwrap();
    let (clean_trajectory, clean_summary) = drive(&mut direct, "trace-flow-faults-clean");
    clean.shutdown();
    assert!(
        clean_trajectory.len() > 5,
        "budget must be worth interrupting"
    );

    let faulted = daemon(true);
    // Frame 0 is Hello, 1 SessionStart; then Fetch/Report alternate
    // (with Hello/Resume pairs inserted by every reconnect).
    let plan = FaultPlan::at([
        (3, FaultKind::CutBeforeForward),
        (9, FaultKind::CutBeforeResponse),
        (16, FaultKind::TruncateResponse),
    ]);
    let proxy = FaultProxy::start(faulted.addr(), plan).unwrap();
    let mut through = Client::builder(proxy.addr())
        .tracing(true)
        .connect_timeout(Duration::from_secs(2))
        .retry(RetryPolicy::default().with_max_retries(8))
        .connect()
        .unwrap();
    let (faulted_trajectory, faulted_summary) = drive(&mut through, "trace-flow-faults");

    assert_eq!(
        faulted_trajectory, clean_trajectory,
        "faults + tracing leaked"
    );
    assert_eq!(
        faulted_summary.performance.to_bits(),
        clean_summary.performance.to_bits()
    );
    assert_eq!(faulted_summary.iterations, clean_summary.iterations);

    let dump = through.trace_dump().unwrap();
    let t = session_trace(&dump, "trace-flow-faults").expect("trace survives reconnects");
    assert!(t.complete, "SessionEnd seals the trace");
    // The spans a cut exchange was carrying were re-shipped, not lost:
    // the session-spanning trace still holds the client's evaluations.
    let evals = t.spans.iter().filter(|s| s.stage == stage::EVAL).count();
    assert_eq!(
        evals,
        faulted_trajectory.len(),
        "one eval span per measurement"
    );
    assert!(!proxy.injected().is_empty(), "the plan must actually fire");
    faulted.shutdown();
}

/// On a ring every `Report` is answered only once its step has reached
/// the successor, and that wait is a `peer.ship` span in the session's
/// trace, under the `Report`'s serve span: one per `Report` of a traced
/// session on a 2-member ring at replication 2.
#[test]
fn each_replicated_report_records_one_peer_ship_span() {
    let reserved: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<String> = reserved
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();
    drop(reserved);
    let members: Vec<DaemonHandle> = (0..2)
        .map(|i| {
            let config = DaemonConfig::builder()
                .listen(addrs[i].clone())
                .cluster(addrs[i].clone(), vec![addrs[1 - i].clone()], 2)
                .build()
                .unwrap();
            TuningDaemon::start(config).unwrap()
        })
        .collect();
    let mut client = Client::builder(addrs[0].as_str())
        .tracing(true)
        .connect()
        .unwrap();
    let label = "trace-flow-ring";
    let (trajectory, _) = drive(&mut client, label);

    let dump = client.trace_dump().unwrap();
    let t = session_trace(&dump, label).expect("session trace retained");
    let serves: HashSet<u64> = t
        .spans
        .iter()
        .filter(|s| s.stage == stage::SERVE)
        .map(|s| s.id)
        .collect();
    let steps: Vec<_> = t
        .spans
        .iter()
        .filter(|s| s.stage == stage::PEER_SHIP && s.detail == "PeerShipStep")
        .collect();
    assert_eq!(steps.len(), trajectory.len(), "one step ship per Report");
    for s in steps {
        assert!(serves.contains(&s.parent), "{s:?} hangs off no serve span");
        assert!(!s.error, "{s:?} failed");
    }
    for m in members {
        m.shutdown();
    }
}
