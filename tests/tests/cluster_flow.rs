//! Cluster suite: a multi-daemon ring shards sessions and runs by
//! consistent hashing, ships recorded runs and session records (whole
//! at the start, one step per report after it) to replica peers, and
//! fails sessions over when a member dies.
//!
//! The load-bearing properties, mirrored from the single-daemon
//! resilience suite:
//!
//! - *Zero recorded-run loss*: with a replication factor of 2, every
//!   completed run is held by at least two ring members, so killing any
//!   one daemon leaves the full run set queryable on the survivors.
//! - *Bit-identical failover*: a session interrupted by its owner's
//!   death resumes from the replica snapshot and walks exactly the
//!   trajectory of an uninterrupted single-daemon run — same
//!   configurations in the same order, same best performance to the
//!   last bit.

use harmony::history::RunHistory;
use harmony_net::client::{Client, RetryPolicy, SessionSummary};
use harmony_net::cluster::{ring_hash, HashRing};
use harmony_net::codec::{read_frame, write_frame};
use harmony_net::protocol::{Request, Response, SpaceSpec, MIN_SUPPORTED_VERSION};
use harmony_net::server::{DaemonConfig, DaemonHandle, TuningDaemon};
use harmony_net::NetError;
use integration_tests::alone;
use std::collections::HashSet;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const RSL: &str =
    "{ harmonyBundle cache { int {1 20 1} }}\n{ harmonyBundle threads { int {1 20 1} }}";

/// Deterministic synthetic objective, optimum at cache=14, threads=6.
fn perf(values: &[i64]) -> f64 {
    let c = values[0] as f64;
    let t = values[1] as f64;
    200.0 - (c - 14.0).powi(2) - 2.0 * (t - 6.0).powi(2)
}

/// Reserve `n` distinct loopback addresses. The listeners are held
/// until every port is drawn, then dropped so the daemons can bind the
/// same addresses (the usual bind-to-zero reservation trick).
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| format!("127.0.0.1:{}", l.local_addr().unwrap().port()))
        .collect()
}

/// Start ring member `i` of `addrs` with the given replication factor.
fn cluster_daemon(addrs: &[String], i: usize, replication: usize) -> DaemonHandle {
    cluster_daemon_with_ttl(addrs, i, replication, DaemonConfig::default().session_ttl)
}

/// [`cluster_daemon`] with a chosen parked-session time to live.
fn cluster_daemon_with_ttl(
    addrs: &[String],
    i: usize,
    replication: usize,
    session_ttl: Duration,
) -> DaemonHandle {
    let peers: Vec<String> = addrs
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != i)
        .map(|(_, a)| a.clone())
        .collect();
    let config = DaemonConfig::builder()
        .listen(addrs[i].clone())
        .cluster(addrs[i].clone(), peers, replication)
        .session_ttl(session_ttl)
        .build()
        .expect("valid cluster config");
    // A restart rebinds its predecessor's address. A child process that
    // `alone` is spawning holds a copy of the old listener until its exec
    // closes it, a few milliseconds, so a refused bind is retried.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TuningDaemon::start(config.clone()) {
            Err(NetError::Io(e))
                if e.kind() == std::io::ErrorKind::AddrInUse && Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            started => return started.expect("cluster daemon starts"),
        }
    }
}

/// A resilient client that knows every ring member's address.
fn ring_client(addrs: &[String], seed: u64) -> Client {
    let mut builder = Client::builder(addrs[0].as_str())
        .connect_timeout(Duration::from_secs(2))
        .retry(RetryPolicy::default().with_max_retries(10).with_seed(seed));
    for addr in &addrs[1..] {
        builder = builder.endpoint(addr.as_str());
    }
    builder.connect().expect("ring client connects")
}

/// Drive one whole 40-evaluation session, recording the exact trajectory.
fn drive(
    client: &mut Client,
    label: &str,
    characteristics: Vec<f64>,
) -> (Vec<(Vec<i64>, u64)>, SessionSummary) {
    drive_budget(client, label, characteristics, 40)
}

/// [`drive`] with a chosen evaluation budget.
fn drive_budget(
    client: &mut Client,
    label: &str,
    characteristics: Vec<f64>,
    budget: usize,
) -> (Vec<(Vec<i64>, u64)>, SessionSummary) {
    client
        .start_session(
            SpaceSpec::Rsl(RSL.into()),
            label,
            characteristics,
            Some(budget),
        )
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

/// With replication 2, every run is on at least two members: kill any
/// one daemon and the union of the survivors' databases is complete.
#[test]
fn replicated_runs_survive_a_daemon_death() {
    let addrs = reserve_addrs(3);
    let daemons: Vec<DaemonHandle> = (0..3).map(|i| cluster_daemon(&addrs, i, 2)).collect();

    // One completed session against each member, with characteristics
    // spread across the shard space.
    let labels = ["alpha", "beta", "gamma"];
    for (i, label) in labels.iter().enumerate() {
        let mut client = Client::connect(addrs[i].as_str()).unwrap();
        drive(
            &mut client,
            label,
            vec![0.1 + 0.3 * i as f64, 0.9 - 0.3 * i as f64],
        );
    }

    // Kill one daemon; the other two must still hold everything.
    let mut daemons = daemons;
    daemons.remove(0).shutdown();
    let mut surviving: HashSet<String> = HashSet::new();
    for addr in &addrs[1..] {
        let mut client = Client::connect(addr.as_str()).unwrap();
        for run in client.db_runs().unwrap() {
            assert!(run.records > 0, "shipped run {:?} arrived empty", run.label);
            surviving.insert(run.label);
        }
    }
    for label in labels {
        assert!(
            surviving.contains(label),
            "run {label:?} lost with one daemon down (survivors hold {surviving:?})"
        );
    }
    for d in daemons {
        d.shutdown();
    }
}

/// How many runs the member at `addr` holds.
fn run_count(addr: &str) -> usize {
    Client::connect(addr).unwrap().db_runs().unwrap().len()
}

/// The peer remembers the highest run sequence it applied from each
/// origin and drops anything at or below it as a retried ship. A daemon
/// restarted on the same address is the same origin: its runs must
/// number above its predecessor's, or the peer silently discards them.
#[test]
fn a_restarted_origin_keeps_replicating() {
    let addrs = reserve_addrs(2);
    let origin = cluster_daemon(&addrs, 0, 2);
    let peer = cluster_daemon(&addrs, 1, 2);
    let session = |label: &str| {
        let mut client = Client::connect(addrs[0].as_str()).unwrap();
        drive(&mut client, label, vec![0.4, 0.6]);
    };
    for label in ["one", "two", "three"] {
        session(label);
    }
    assert_eq!(run_count(&addrs[1]), 3);

    origin.shutdown();
    let origin = cluster_daemon(&addrs, 0, 2);
    session("after-restart");
    assert_eq!(
        run_count(&addrs[1]),
        4,
        "the restarted origin's run was dropped as a replay"
    );
    origin.shutdown();
    peer.shutdown();
}

/// Sessions ending at the same moment on different pool workers ship
/// over the same peer link; each run's sequence is drawn under that
/// link's lock, so none can overtake a lower one and be dropped.
#[test]
fn concurrent_session_ends_all_replicate() {
    let addrs = reserve_addrs(2);
    let origin = cluster_daemon(&addrs, 0, 2);
    let peer = cluster_daemon(&addrs, 1, 2);
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (addr, start) = (addrs[0].as_str(), &start);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                start.wait();
                // Short sessions: what races is `SessionEnd`, so spend
                // the time ending sessions rather than tuning.
                for s in 0..5 {
                    drive_budget(&mut client, &format!("t{t}-s{s}"), vec![0.4, 0.6], 3);
                }
            });
        }
    });
    assert_eq!(run_count(&addrs[0]), 20);
    assert_eq!(run_count(&addrs[1]), 20, "a shipped run was dropped");
    origin.shutdown();
    peer.shutdown();
}

/// A session whose owner dies mid-tune fails over to the replica and
/// finishes on exactly the trajectory of an undisturbed run — cold, and
/// warm-started from a prior run (the adopter repeats the training
/// stage from the prior the snapshot carries).
#[test]
fn killed_owner_fails_over_bit_identically() {
    for warm in [false, true] {
        // The reference: one clean single-daemon run.
        let clean = TuningDaemon::start(DaemonConfig::default()).unwrap();
        let mut direct = Client::connect(clean.addr()).unwrap();
        if warm {
            drive(&mut direct, "seed", vec![0.5, 0.5]);
        }
        let (clean_trace, clean_summary) = drive(&mut direct, "clean", vec![0.5, 0.5]);
        clean.shutdown();
        assert!(clean_trace.len() > 10, "budget must be worth interrupting");

        // The cluster run: the session starts on member 0 (its token is
        // self-owned), and member 0 is killed mid-session.
        let addrs = reserve_addrs(3);
        let mut daemons: Vec<DaemonHandle> = (0..3).map(|i| cluster_daemon(&addrs, i, 2)).collect();
        let mut client = ring_client(&addrs, 7);
        if warm {
            drive(&mut client, "seed", vec![0.5, 0.5]);
        }
        let started = client
            .start_session(
                SpaceSpec::Rsl(RSL.into()),
                "failover",
                vec![0.5, 0.5],
                Some(40),
            )
            .unwrap();
        assert_eq!(started.trained_from.as_deref(), warm.then_some("seed"));
        assert_eq!(started.training_iterations > 0, warm);
        let token = client.session_token().expect("v2+ token").to_string();
        let ring = HashRing::new(&addrs);
        assert_eq!(
            ring.owner(&token),
            addrs[0],
            "a session's creator must be its ring owner"
        );

        let mut trace = Vec::new();
        for _ in 0..7 {
            let p = client.fetch().unwrap().expect("early proposal");
            let y = perf(p.values.values());
            trace.push((p.values.values().to_vec(), y.to_bits()));
            client.report(y).unwrap();
        }
        daemons.remove(0).shutdown();

        // The next request reconnects, follows the redirect chain, and
        // the replica holder adopts the session where it stopped.
        while let Some(p) = client.fetch().expect("post-failover fetch") {
            let y = perf(p.values.values());
            trace.push((p.values.values().to_vec(), y.to_bits()));
            client.report(y).expect("post-failover report");
        }
        let summary = client.end_session().expect("post-failover end");

        assert_eq!(clean_trace, trace, "failover changed the trajectory");
        assert_eq!(clean_summary.iterations, summary.iterations);
        assert_eq!(clean_summary.best.values(), summary.best.values());
        assert_eq!(
            clean_summary.performance.to_bits(),
            summary.performance.to_bits(),
            "best performance must match to the bit"
        );
        assert_eq!(clean_summary.converged, summary.converged);

        // The finished run was recorded by the adopting survivor.
        let mut recorded = false;
        for addr in &addrs[1..] {
            let mut c = Client::connect(addr.as_str()).unwrap();
            recorded |= c.db_runs().unwrap().iter().any(|r| r.label == "failover");
        }
        assert!(recorded, "the failed-over run never reached a database");
        for d in daemons {
            d.shutdown();
        }
    }
}

/// Full session records shipped because a replica refused a step, as the
/// member at `addr` counts them (one registry per process: every member
/// started here reports the same number).
fn resyncs(addr: &str) -> u64 {
    counter(addr, "harmony_net_peer_session_resyncs_total")
}

/// Peer ships that failed, counted like [`resyncs`].
fn ship_failures(addr: &str) -> u64 {
    counter(addr, "harmony_net_peer_ship_failures_total")
}

/// The value of the preregistered counter `name` on the member at `addr`.
fn counter(addr: &str, name: &str) -> u64 {
    let stats = Client::connect(addr).unwrap().stats().unwrap();
    let line = stats
        .lines()
        .find(|l| l.split_once(' ').is_some_and(|(series, _)| series == name))
        .unwrap_or_else(|| panic!("{name} is preregistered"));
    line.rsplit_once(' ').unwrap().1.parse().unwrap()
}

/// A successor that restarts mid-session comes back holding nothing. The
/// next `Report`'s step finds that out and ships it the whole record, so
/// when the owner dies afterwards the session still fails over onto
/// exactly the trajectory of an undisturbed run.
#[test]
fn a_restarted_successor_catches_up_mid_session() {
    let clean = TuningDaemon::start(DaemonConfig::default()).unwrap();
    let mut direct = Client::connect(clean.addr()).unwrap();
    let (clean_trace, clean_summary) = drive(&mut direct, "clean", vec![0.5, 0.5]);
    clean.shutdown();

    let addrs = reserve_addrs(3);
    let mut daemons: Vec<Option<DaemonHandle>> =
        (0..3).map(|i| Some(cluster_daemon(&addrs, i, 2))).collect();
    let mut client = ring_client(&addrs, 11);
    client
        .start_session(
            SpaceSpec::Rsl(RSL.into()),
            "catch-up",
            vec![0.5, 0.5],
            Some(40),
        )
        .unwrap();
    let token = client.session_token().expect("v2+ token").to_string();
    let ring = HashRing::new(&addrs);
    let holders = ring.successors(ring_hash(token.as_bytes()), 2);
    assert_eq!(holders[0], addrs[0], "the creator owns the session");
    let successor = addrs.iter().position(|a| a == holders[1]).unwrap();

    let mut trace = Vec::new();
    let mut evaluate = |client: &mut Client, n: usize| {
        for _ in 0..n {
            let p = client.fetch().unwrap().expect("the budget is not spent");
            let y = perf(p.values.values());
            trace.push((p.values.values().to_vec(), y.to_bits()));
            client.report(y).unwrap();
        }
    };
    evaluate(&mut client, 5);
    let before = resyncs(&addrs[0]);
    daemons[successor].take().unwrap().shutdown();
    daemons[successor] = Some(cluster_daemon(&addrs, successor, 2));
    evaluate(&mut client, 2);
    assert!(
        resyncs(&addrs[0]) > before,
        "the restarted successor was never sent the record"
    );

    // The owner dies; the successor must hold all seven observations,
    // five of which it only ever saw in the resynchronisation.
    daemons[0].take().unwrap().shutdown();
    while let Some(p) = client.fetch().expect("post-failover fetch") {
        let y = perf(p.values.values());
        trace.push((p.values.values().to_vec(), y.to_bits()));
        client.report(y).expect("post-failover report");
    }
    let summary = client.end_session().expect("post-failover end");
    assert_eq!(clean_trace, trace, "catching up changed the trajectory");
    assert_eq!(clean_summary.iterations, summary.iterations);
    assert_eq!(clean_summary.best.values(), summary.best.values());
    assert_eq!(
        clean_summary.performance.to_bits(),
        summary.performance.to_bits()
    );
    for d in daemons.into_iter().flatten() {
        d.shutdown();
    }
}

/// A session whose client vanished is expired by its owner's reaper —
/// and with it the successor's replica: the token is retired everywhere,
/// so a later `Resume` on the successor has nothing to adopt (and the
/// expired session's run is not recorded a second time from there).
#[test]
fn an_expired_session_leaves_no_replica_to_adopt() {
    let addrs = reserve_addrs(2);
    let ttl = Duration::from_millis(100);
    let owner = cluster_daemon_with_ttl(&addrs, 0, 2, ttl);
    let successor = cluster_daemon_with_ttl(&addrs, 1, 2, ttl);
    let mut client = Client::connect(addrs[0].as_str()).unwrap();
    client
        .start_session(
            SpaceSpec::Rsl(RSL.into()),
            "vanished",
            vec![0.3, 0.7],
            Some(40),
        )
        .unwrap();
    let token = client.session_token().unwrap().to_string();
    for _ in 0..3 {
        let p = client.fetch().unwrap().unwrap();
        client.report(perf(p.values.values())).unwrap();
    }
    drop(client);

    // The reaper records what was measured, ships the run (both members
    // hold it at replication 2), then retires the token; the drop
    // follows the run on the same link, so allow it a moment.
    for _ in 0..200 {
        if run_count(&addrs[1]) == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(run_count(&addrs[0]), 1, "the expired session's run is kept");
    assert_eq!(run_count(&addrs[1]), 1);
    std::thread::sleep(Duration::from_millis(200));

    let mut stream = hello_v2(&addrs[1]);
    match round_trip(&mut stream, &Request::Resume { token }) {
        Response::NotMine { owner } => assert_eq!(owner, addrs[0]),
        other => panic!("a retired token must not be adopted, got {other:?}"),
    }
    assert_eq!(run_count(&addrs[1]), 1, "nothing was recorded twice");
    owner.shutdown();
    successor.shutdown();
}

/// A session whose connection resets at a frame boundary — its client
/// closed with a response unread — parks like one that hung up cleanly,
/// so the reaper still records its run and retires its replica.
#[test]
fn a_reset_session_is_parked_and_its_replica_retired() {
    let addrs = reserve_addrs(2);
    let ttl = Duration::from_millis(100);
    let owner = cluster_daemon_with_ttl(&addrs, 0, 2, ttl);
    let successor = cluster_daemon_with_ttl(&addrs, 1, 2, ttl);
    let mut stream = hello_v2(&addrs[0]);
    let start = Request::SessionStart {
        space: SpaceSpec::Rsl(RSL.into()),
        label: "reset".into(),
        characteristics: vec![0.2, 0.8],
        max_iterations: Some(40),
        engine: None,
    };
    let token = match round_trip(&mut stream, &start) {
        Response::SessionStarted {
            session_token: Some(token),
            ..
        } => token,
        other => panic!("expected SessionStarted with a token, got {other:?}"),
    };
    for seq in 0..3 {
        let Response::Config { values, .. } = round_trip(&mut stream, &Request::Fetch) else {
            panic!("the budget is not spent");
        };
        let report = Request::Report {
            performance: perf(&values),
            seq: Some(seq),
        };
        assert!(matches!(
            round_trip(&mut stream, &report),
            Response::Reported
        ));
    }
    write_frame(&mut stream, &Request::Fetch).unwrap();
    stream.peek(&mut [0u8; 1]).unwrap();
    drop(stream);

    for _ in 0..200 {
        if run_count(&addrs[1]) == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(run_count(&addrs[0]), 1, "the reset session's run is kept");
    assert_eq!(run_count(&addrs[1]), 1);
    std::thread::sleep(Duration::from_millis(200));
    let mut stream = hello_v2(&addrs[1]);
    match round_trip(&mut stream, &Request::Resume { token }) {
        Response::NotMine { owner } => assert_eq!(owner, addrs[0]),
        other => panic!("the reset session's replica must be retired, got {other:?}"),
    }
    owner.shutdown();
    successor.shutdown();
}

/// A member that holds nothing for a foreign token points the client at
/// the ring owner instead of serving or inventing an error.
#[test]
fn non_owners_redirect_to_the_ring_owner() {
    let addrs = reserve_addrs(3);
    let daemons: Vec<DaemonHandle> = (0..3).map(|i| cluster_daemon(&addrs, i, 2)).collect();

    let mut client = ring_client(&addrs, 21);
    client
        .start_session(
            SpaceSpec::Rsl(RSL.into()),
            "routed",
            vec![0.4, 0.6],
            Some(40),
        )
        .unwrap();
    let token = client.session_token().unwrap().to_string();

    // The replica set is the owner plus its ring successor; the third
    // member holds nothing and must redirect.
    let ring = HashRing::new(&addrs);
    let holders: Vec<String> = ring
        .successors(ring_hash(token.as_bytes()), 2)
        .into_iter()
        .map(String::from)
        .collect();
    let outsider = addrs
        .iter()
        .find(|a| !holders.contains(a))
        .expect("one member is outside the replica set");

    let mut stream = hello_v2(outsider);
    match round_trip(&mut stream, &Request::Resume { token }) {
        Response::NotMine { owner } => assert_eq!(owner, addrs[0], "redirect must name the owner"),
        other => panic!("expected NotMine, got {other:?}"),
    }
    client.end_session().unwrap();
    for d in daemons {
        d.shutdown();
    }
}

/// Client-facing connections may not speak the peer protocol: without a
/// `PeerHello` — which demands a known ring member — `Peer*` requests
/// are refused, clustered or not.
#[test]
fn peer_requests_are_refused_on_client_connections() {
    let addrs = reserve_addrs(3);
    let daemons: Vec<DaemonHandle> = (0..3).map(|i| cluster_daemon(&addrs, i, 2)).collect();

    let mut stream = hello_v2(&addrs[0]);
    match round_trip(
        &mut stream,
        &Request::PeerShipRun {
            origin: "impostor:1".into(),
            seq: 1,
            run: Arc::new(RunHistory::new("forged", vec![0.5, 0.5])),
        },
    ) {
        Response::Error { message } => {
            assert!(message.contains("PeerHello"), "{message}")
        }
        other => panic!("expected Error, got {other:?}"),
    }
    // And a PeerHello from a non-member is itself refused.
    match round_trip(
        &mut stream,
        &Request::PeerHello {
            node: "impostor:1".into(),
        },
    ) {
        Response::Error { message } => {
            assert!(message.contains("unknown ring member"), "{message}")
        }
        other => panic!("expected Error, got {other:?}"),
    }
    for d in daemons {
        d.shutdown();
    }
}

/// An abandoned v1 session on a cluster ships its recorded run to peers,
/// which waits up to the peer link timeouts when a successor is dark; that
/// wait must not happen on the reactor's loop thread, where it would stall
/// every other connection.
#[test]
fn an_abandoned_session_ships_without_stalling_the_loop() {
    let daemon_addr = reserve_addrs(1).remove(0);
    // A ring member that accepts connections (the kernel completes the
    // handshake) and never answers: every ship to it runs into its read
    // timeout.
    let dark = TcpListener::bind("127.0.0.1:0").unwrap();
    let dark_addr = dark.local_addr().unwrap().to_string();
    let config = DaemonConfig::builder()
        .listen(daemon_addr.clone())
        .cluster(daemon_addr.clone(), vec![dark_addr], 2)
        .build()
        .unwrap();
    let handle = TuningDaemon::start(config).unwrap();

    let mut v1 = Client::builder(daemon_addr.as_str())
        .max_protocol_version(1)
        .connect()
        .unwrap();
    v1.start_session(
        SpaceSpec::Rsl(RSL.into()),
        "abandoned",
        vec![0.5, 0.5],
        None,
    )
    .unwrap();
    for _ in 0..3 {
        let p = v1.fetch().unwrap().expect("budget left");
        v1.report(perf(p.values.values())).unwrap();
    }
    // A clean disconnect: the session is abandoned, its run recorded and
    // shipped to the dark member. A v1 session has no token, so nothing
    // was shipped before: the dial accepted here is the run's ship.
    drop(v1);
    let _unanswered = accept_within(&dark, Duration::from_secs(10))
        .expect("the abandoned session's run was never shipped to the dark member");

    let started = std::time::Instant::now();
    let mut next = Client::connect(daemon_addr.as_str()).unwrap();
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_millis(500),
        "connect + Hello took {waited:?} while a ship to a dark peer was pending"
    );
    next.stats().unwrap();

    // The experience is kept all the same, once the ship gives up.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.db_runs() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        handle.db_runs(),
        1,
        "the abandoned session's run is recorded"
    );
    drop(next);
    handle.shutdown();
}

/// A successor that accepts connections and never answers costs the
/// requests that replicate to it a deadline — a tokened `Report` is
/// answered only once its ship has failed — and nothing else: meanwhile
/// a new connection's `Hello` + `Stats` and an unreplicated (v1)
/// session's `Fetch` and `Report` are served at once, because no thread
/// the loop needs is waiting on the peer.
#[test]
fn a_dark_successor_delays_only_what_replicates_to_it() {
    alone("a_dark_successor_delays_only_what_replicates_to_it", || {
        let daemon_addr = reserve_addrs(1).remove(0);
        // The kernel completes the handshake of every dial; nothing ever
        // reads, let alone answers.
        let dark = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = DaemonConfig::builder()
            .listen(daemon_addr.clone())
            .cluster(
                daemon_addr.clone(),
                vec![dark.local_addr().unwrap().to_string()],
                2,
            )
            .build()
            .unwrap();
        let handle = TuningDaemon::start(config).unwrap();

        let mut tokened = Client::connect(daemon_addr.as_str()).unwrap();
        tokened
            .start_session(SpaceSpec::Rsl(RSL.into()), "dark", vec![0.5, 0.5], Some(40))
            .unwrap();
        let proposal = tokened.fetch().unwrap().expect("budget left");
        let failures = ship_failures(&daemon_addr);
        let report = std::thread::spawn(move || {
            let sent = Instant::now();
            tokened.report(perf(proposal.values.values())).unwrap();
            sent.elapsed()
        });
        std::thread::sleep(Duration::from_millis(100));

        let quick = |what: &str, request: &mut dyn FnMut()| {
            let started = Instant::now();
            request();
            let took = started.elapsed();
            assert!(
                took < Duration::from_millis(100),
                "{what} took {took:?} while a Report waited on a dark peer"
            );
        };
        quick("connect + Hello + Stats", &mut || {
            Client::connect(daemon_addr.as_str())
                .unwrap()
                .stats()
                .unwrap();
        });
        let mut v1 = Client::builder(daemon_addr.as_str())
            .max_protocol_version(1)
            .connect()
            .unwrap();
        v1.start_session(SpaceSpec::Rsl(RSL.into()), "lit", vec![0.2, 0.8], None)
            .unwrap();
        for _ in 0..3 {
            let mut proposal = None;
            quick("v1 Fetch", &mut || proposal = v1.fetch().unwrap());
            let y = perf(proposal.expect("budget left").values.values());
            quick("v1 Report", &mut || v1.report(y).unwrap());
        }

        let waited = report.join().unwrap();
        assert!(
            waited >= Duration::from_millis(1500),
            "the Report was acknowledged after {waited:?}, before its ship failed"
        );
        assert_eq!(ship_failures(&daemon_addr), failures + 1);
        drop(v1);
        handle.shutdown();
    });
}

/// Two members at replication 2 are each other's successor, so with
/// sessions running on both at once every member is an owner and a
/// replica at the same time: its loop ships to the other while serving
/// the other's ships. Neither may wait on the other's loop: every session
/// finishes, no ship fails or is refused, and both members hold every
/// run.
#[test]
fn members_shipping_to_each_other_never_wait_on_each_other() {
    alone(
        "members_shipping_to_each_other_never_wait_on_each_other",
        || {
            let addrs = reserve_addrs(2);
            let daemons: Vec<DaemonHandle> = (0..2).map(|i| cluster_daemon(&addrs, i, 2)).collect();
            let (failures, resynced) = (ship_failures(&addrs[0]), resyncs(&addrs[0]));
            let start = Barrier::new(4);
            std::thread::scope(|scope| {
                for c in 0..4 {
                    let (addr, start) = (addrs[c % 2].as_str(), &start);
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        start.wait();
                        for s in 0..3 {
                            let characteristics = vec![0.1 * c as f64, 0.1 * s as f64];
                            drive_budget(&mut client, &format!("c{c}-s{s}"), characteristics, 20);
                        }
                    });
                }
            });
            assert_eq!(ship_failures(&addrs[0]), failures, "a ship failed");
            assert_eq!(resyncs(&addrs[0]), resynced, "a replica fell out of step");
            for addr in &addrs {
                assert_eq!(run_count(addr), 12, "{addr} is missing runs");
            }
            for d in daemons {
                d.shutdown();
            }
        },
    );
}

/// An idle link holds no stale connection. The successor restarts
/// between two sessions; the owner's loop sees the old connection's EOF,
/// and the next `SessionEnd`'s run reaches the new successor on a fresh
/// dial, with no ship counted as failed.
#[test]
fn an_idle_link_redials_a_restarted_successor() {
    alone("an_idle_link_redials_a_restarted_successor", || {
        let addrs = reserve_addrs(2);
        let owner = cluster_daemon(&addrs, 0, 2);
        let successor = cluster_daemon(&addrs, 1, 2);
        let mut client = Client::connect(addrs[0].as_str()).unwrap();
        drive_budget(&mut client, "before", vec![0.4, 0.6], 10);
        assert_eq!(run_count(&addrs[1]), 1);

        successor.shutdown();
        let successor = cluster_daemon(&addrs, 1, 2);
        let failures = ship_failures(&addrs[0]);
        // A v1 session replicates nothing before its end: the run is the
        // first ship on the link since the restart.
        let mut v1 = Client::builder(addrs[0].as_str())
            .max_protocol_version(1)
            .connect()
            .unwrap();
        drive_budget(&mut v1, "after", vec![0.4, 0.6], 10);
        assert_eq!(
            run_count(&addrs[1]),
            1,
            "the restarted successor never received the run"
        );
        assert_eq!(ship_failures(&addrs[0]), failures);
        owner.shutdown();
        successor.shutdown();
    });
}

/// A raw protocol-v2 connection (JSON framing, no auto-redirects).
/// Accept one connection on `listener` if one arrives within `limit`,
/// so a ship that never comes fails the test instead of hanging it.
fn accept_within(listener: &TcpListener, limit: Duration) -> Option<TcpStream> {
    listener.set_nonblocking(true).unwrap();
    let deadline = Instant::now() + limit;
    loop {
        match listener.accept() {
            Ok((stream, _)) => return Some(stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return None,
        }
    }
}

fn hello_v2(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        &Request::Hello {
            version: None,
            min_version: Some(MIN_SUPPORTED_VERSION),
            max_version: Some(2),
            client: "cluster test".into(),
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
