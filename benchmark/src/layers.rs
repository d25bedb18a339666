//! The `layers` phase (source M): each layer's public functions called
//! directly, on inputs of the shapes the workloads send, a fixed number
//! of operations per batch, median ns/op over the batches.

use crate::inputs::{self, Quad, Rng, QUAD_RSL};
use crate::metrics::median_of;
use crate::node::{reserve_addrs, Node, NodeSpec};
use crate::workload::{CHURN_SEED_RECORDS, CHURN_SEED_RUNS, PORT_BASE};
use harmony::history::wal::{self, WalWriter};
use harmony::history::DataAnalyzer;
use harmony::tuner::{TrainingMode, Tuner, TuningOptions};
use harmony_engines::registry;
use harmony_exec::TaskPool;
use harmony_linalg::stats::euclidean_sq;
use harmony_linalg::{lstsq, Matrix};
use harmony_net::client::{Client, RetryPolicy};
use harmony_net::cluster::HashRing;
use harmony_net::codec::{encode_frame_as, try_decode_frame, FrameOutcome};
use harmony_net::protocol::{Request, Response, SpaceSpec};
use harmony_net::WireFormat;
use harmony_space::{parse_rsl, Configuration};
use harmony_websim::demands::DemandModel;
use harmony_websim::des::DesConfig;
use harmony_websim::{analytic, des, webservice_space, WebServiceConfig, WorkloadMix};
use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

/// Batches per measurement; the reported number is their median.
const BATCHES: usize = 5;
/// Batches for the operations that take a second each.
const SLOW_BATCHES: usize = 3;

/// Runs in the database the classify / clone / index / compact
/// measurements use: what `experience_churn` grows to at the default
/// `--seconds`.
const GROWN_DB_RUNS: usize = 600;

/// Evaluations into a session at which its serialized kernel is about
/// 4 KB, the size of a snapshot `ring_replicated` ships mid-session.
const SHIPPED_SESSION_EVALS: usize = 20;

/// Median nanoseconds per operation over `batches` batches of `ops`.
fn time_ns(batches: usize, ops: usize, mut op: impl FnMut()) -> f64 {
    median_of((0..batches).map(|_| {
        let start = Instant::now();
        for _ in 0..ops {
            op();
        }
        start.elapsed().as_nanos() as f64 / ops as f64
    }))
}

/// One 200-evaluation session's requests and the responses to them.
fn session_mix() -> (Vec<Request>, Vec<Response>) {
    let space = parse_rsl(QUAD_RSL).expect("benchmark RSL parses");
    let mut requests = vec![
        Request::Hello {
            version: None,
            min_version: Some(1),
            max_version: Some(3),
            client: "bench_stack".into(),
        },
        Request::SessionStart {
            space: SpaceSpec::Rsl(QUAD_RSL.into()),
            label: "hot-20".into(),
            characteristics: vec![20.0],
            max_iterations: Some(200),
            engine: None,
        },
    ];
    let mut responses = vec![
        Response::Hello {
            version: 3,
            server: "harmony-net".into(),
        },
        Response::SessionStarted {
            space,
            trained_from: None,
            training_iterations: 0,
            session_token: Some("hs-17f2a9c3b5d1e0aa-14".into()),
        },
    ];
    for i in 0..200u64 {
        requests.push(Request::Fetch);
        responses.push(Response::Config {
            values: vec![50 + (i % 17) as i64, 48, 52, 40 + (i % 5) as i64],
            iteration: i as usize,
        });
        requests.push(Request::Report {
            performance: 950.0 + i as f64 * 0.125,
            seq: Some(i),
        });
        responses.push(Response::Reported);
    }
    requests.push(Request::Fetch);
    responses.push(Response::Done);
    requests.push(Request::SessionEnd);
    responses.push(Response::SessionSummary {
        values: vec![51, 48, 52, 41],
        performance: 998.75,
        iterations: 200,
        converged: false,
    });
    (requests, responses)
}

/// Encode and decode ns/message of the session mix in `format`.
fn wire_ns(format: WireFormat, requests: &[Request], responses: &[Response]) -> (f64, f64) {
    let messages = requests.len() + responses.len();
    let mut buf = Vec::new();
    let encode = time_ns(BATCHES, 20, || {
        for r in requests {
            encode_frame_as(format, r, &mut buf).expect("encode");
            black_box(&buf);
        }
        for r in responses {
            encode_frame_as(format, r, &mut buf).expect("encode");
            black_box(&buf);
        }
    }) / messages as f64;
    let request_frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            encode_frame_as(format, r, &mut buf).expect("encode");
            buf.clone()
        })
        .collect();
    let response_frames: Vec<Vec<u8>> = responses
        .iter()
        .map(|r| {
            encode_frame_as(format, r, &mut buf).expect("encode");
            buf.clone()
        })
        .collect();
    let decode = time_ns(BATCHES, 20, || {
        for f in &request_frames {
            match try_decode_frame::<Request>(format, f).expect("frame header") {
                FrameOutcome::Frame { result, .. } => {
                    black_box(result.expect("decode"));
                }
                FrameOutcome::Incomplete => panic!("whole frame reported incomplete"),
            }
        }
        for f in &response_frames {
            match try_decode_frame::<Response>(format, f).expect("frame header") {
                FrameOutcome::Frame { result, .. } => {
                    black_box(result.expect("decode"));
                }
                FrameOutcome::Incomplete => panic!("whole frame reported incomplete"),
            }
        }
    }) / messages as f64;
    (encode, decode)
}

/// Median round trip of `DbQuery` against an empty daemon with nothing
/// configured: client, codec, reactor and worker hand-off, no session.
fn bare_rtt_us() -> Result<f64, String> {
    let addr = reserve_addrs(PORT_BASE, 1)?.remove(0);
    let mut node = Node::spawn(&NodeSpec {
        addr: addr.clone(),
        ..NodeSpec::default()
    })?;
    node.await_hello()?;
    let mut client = Client::builder(addr.as_str())
        .retry(RetryPolicy::none())
        .connect()
        .map_err(|e| format!("bare daemon: {e}"))?;
    let mut samples = Vec::with_capacity(2_000);
    for i in 0..2_200 {
        let start = Instant::now();
        client.db_runs().map_err(|e| format!("DbQuery: {e}"))?;
        if i >= 200 {
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    drop(client);
    node.stop()?;
    Ok(median_of(samples.into_iter()))
}

/// Run every M measurement. `scratch` is a directory for the WAL and
/// snapshot files the history measurements write.
pub fn run(seed: u64, scratch: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let io = |e: harmony::history::DbError| format!("layers scratch file: {e}");
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // wire / codec
    let (requests, responses) = session_mix();
    let (encode, decode) = wire_ns(WireFormat::Binary, &requests, &responses);
    out.push(("wire.encode_ns", encode));
    out.push(("wire.decode_ns", decode));
    let (encode, decode) = wire_ns(WireFormat::Json, &requests, &responses);
    out.push(("wire.json_encode_ns", encode));
    out.push(("wire.json_decode_ns", decode));

    // reactor
    out.push(("reactor.bare_rtt_p50_us", bare_rtt_us()?));

    // exec: submit a no-op, wait for its completion.
    let pool = TaskPool::new(1);
    let (tx, rx) = mpsc::channel::<()>();
    let handoff = time_ns(BATCHES, 2_000, || {
        let tx = tx.clone();
        pool.submit(move || {
            let _ = tx.send(());
        });
        rx.recv().expect("pool worker completes the job");
    });
    pool.shutdown();
    out.push(("exec.pool_handoff_us", handoff / 1e3));

    // space
    out.push((
        "space.parse_rsl_us",
        time_ns(BATCHES, 2_000, || {
            black_box(parse_rsl(black_box(QUAD_RSL)).expect("parses"));
        }) / 1e3,
    ));

    // history, on the database experience_churn grows to
    let grown = inputs::churn_seed_db(seed, GROWN_DB_RUNS, CHURN_SEED_RECORDS);
    let index = grown.build_index();
    let analyzer = DataAnalyzer::new();
    let mut rng = Rng::new(inputs::derive(seed, 0xc1a5));
    let probes: Vec<[f64; 3]> = (0..256)
        .map(|_| [rng.unit(), rng.unit(), rng.unit()])
        .collect();
    let mut next = 0usize;
    out.push((
        "history.classify_us",
        time_ns(BATCHES, 2_000, || {
            next = (next + 1) % probes.len();
            black_box(analyzer.select_with(&grown, Some(&index), &probes[next]));
        }) / 1e3,
    ));
    out.push((
        "history.db_clone_ms",
        time_ns(BATCHES, 20, || {
            black_box(grown.clone());
        }) / 1e6,
    ));
    out.push((
        "history.index_build_ms",
        time_ns(BATCHES, 20, || {
            black_box(grown.build_index());
        }) / 1e6,
    ));
    let seed_db = inputs::churn_seed_db(seed, CHURN_SEED_RUNS, CHURN_SEED_RECORDS);
    let snapshot = scratch.join("layers.json");
    let journal = scratch.join("layers.json.wal");
    let compacted = scratch.join("compacted.json");
    seed_db.save(&snapshot).map_err(io)?;
    out.push((
        "history.load_ms",
        time_ns(SLOW_BATCHES, 1, || {
            let db = wal::load_with_wal(&snapshot, &journal).expect("snapshot loads");
            assert_eq!(db.len(), CHURN_SEED_RUNS);
        }) / 1e6,
    ));
    let mut writer = WalWriter::open(&journal).map_err(io)?;
    let runs = seed_db.runs();
    let mut next = 0usize;
    out.push((
        "history.wal_append_us",
        time_ns(BATCHES, 100, || {
            next = (next + 1) % runs.len();
            writer.append_run(&runs[next]).expect("append");
            writer.sync().expect("sync");
        }) / 1e3,
    ));
    let journal_bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
    out.push((
        "history.wal_bytes_per_run",
        journal_bytes as f64 / writer.appended().max(1) as f64,
    ));
    out.push((
        "history.compact_ms",
        time_ns(SLOW_BATCHES, 1, || {
            wal::compact(&grown, &compacted, &mut writer).expect("compact");
        }) / 1e6,
    ));

    // kernel
    let space = parse_rsl(QUAD_RSL).expect("parses");
    let mut quad = Quad {
        optimum: [40.0, 55.0, 62.0, 47.0],
        // Wide enough that no session converges before its budget, so
        // every batch is the same number of steps.
        ripple: 0.25,
        salt: inputs::derive(seed, 0x5a17),
        evals: 0,
    };
    let tuner = Tuner::new(
        space.clone(),
        TuningOptions::improved().with_max_iterations(200),
    );
    out.push((
        "kernel.step_ns",
        time_ns(BATCHES, 50, || {
            let mut session = tuner.session();
            while let Some(cfg) = session.next_config() {
                session.observe(quad.eval(cfg.values())).expect("in order");
            }
            assert_eq!(
                session.iterations(),
                200,
                "the ripple keeps the simplex going"
            );
        }) / 200.0,
    ));
    let prior = &seed_db.runs()[0];
    out.push((
        "kernel.train_us",
        time_ns(BATCHES, 200, || {
            black_box(tuner.session_trained(prior, TrainingMode::Replay(12)));
        }) / 1e3,
    ));

    // engines: the registry's simplex behind `SearchEngine`
    let simplex = registry::lookup("simplex").map_err(|e| e.to_string())?;
    out.push((
        "engines.simplex_step_ns",
        time_ns(BATCHES, 50, || {
            let mut engine = simplex.build(space.clone(), 200, registry::DEFAULT_SEED);
            while let Some(cfg) = engine.next_config() {
                engine.observe(quad.eval(cfg.values())).expect("in order");
            }
        }) / 200.0,
    ));

    // linalg: the estimator's fit (dims + 1 records of a 4-parameter
    // space) and the classifier's distance.
    let rows: Vec<Vec<f64>> = (0..5)
        .map(|_| (0..4).map(|_| rng.unit() - 0.5).collect())
        .collect();
    let a = Matrix::from_rows(&rows);
    let b: Vec<f64> = (0..5).map(|_| rng.unit()).collect();
    out.push((
        "linalg.lstsq_ns",
        time_ns(BATCHES, 20_000, || {
            black_box(lstsq(black_box(&a), black_box(&b)).expect("solvable"));
        }),
    ));
    out.push((
        "linalg.distance_ns",
        time_ns(BATCHES, 2_000, || {
            for pair in probes.windows(2) {
                black_box(euclidean_sq(black_box(&pair[0]), black_box(&pair[1])));
            }
        }) / (probes.len() - 1) as f64,
    ));

    // websim
    let web_space = webservice_space();
    let model = DemandModel::new(WebServiceConfig::decode(
        &web_space,
        &web_space.default_configuration(),
    ));
    let shopping = WorkloadMix::shopping();
    let horizon = DesConfig::default();
    let mut des_seed = inputs::derive(seed, 0xde5);
    out.push((
        "websim.des_eval_ms",
        time_ns(BATCHES, 40, || {
            des_seed = des_seed.wrapping_add(1);
            black_box(des::evaluate_with(&model, &shopping, &horizon, des_seed));
        }) / 1e6,
    ));
    out.push((
        "websim.analytic_eval_us",
        time_ns(BATCHES, 2_000, || {
            black_box(analytic::evaluate(black_box(&model), &shopping));
        }) / 1e3,
    ));

    // serde_json: a mid-session kernel (what a ring owner ships on
    // every request) and the seed snapshot (what a daemon parses at
    // start).
    let mut session = tuner.session();
    for _ in 0..SHIPPED_SESSION_EVALS {
        let cfg: Configuration = session.next_config().expect("budget left");
        session.observe(quad.eval(cfg.values())).expect("in order");
    }
    let small = serde_json::to_string(&session).map_err(|e| e.to_string())?;
    let mb = |bytes: usize, ns: f64| bytes as f64 / 1e6 / (ns / 1e9);
    out.push((
        "serde_json.parse_mb_per_s_4k",
        mb(
            small.len(),
            time_ns(BATCHES, 200, || {
                black_box(serde_json::parse(black_box(&small)).expect("parses"));
            }),
        ),
    ));
    let large = std::fs::read_to_string(&snapshot).map_err(|e| format!("snapshot: {e}"))?;
    out.push((
        "serde_json.parse_mb_per_s_snapshot",
        mb(
            large.len(),
            time_ns(SLOW_BATCHES, 1, || {
                black_box(serde_json::parse(black_box(&large)).expect("parses"));
            }),
        ),
    ));
    let compact_len = serde_json::to_string(&seed_db)
        .map_err(|e| e.to_string())?
        .len();
    out.push((
        "serde_json.to_string_mb_per_s",
        mb(
            compact_len,
            time_ns(BATCHES, 5, || {
                black_box(serde_json::to_string(&seed_db).expect("serializes"));
            }),
        ),
    ));

    // cluster
    let ring = HashRing::new(&[
        "127.0.0.1:22001".to_string(),
        "127.0.0.1:22002".to_string(),
        "127.0.0.1:22003".to_string(),
    ]);
    let tokens: Vec<String> = (0..256)
        .map(|i| format!("hs-17f2a9c3b5d1e0aa-{i:x}"))
        .collect();
    out.push((
        "cluster.ring_owner_ns",
        time_ns(BATCHES, 2_000, || {
            for token in &tokens {
                black_box(ring.owner(black_box(token)));
            }
        }) / tokens.len() as f64,
    ));

    let _ = std::fs::remove_dir_all(scratch);
    Ok(out)
}
