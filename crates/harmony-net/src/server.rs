//! The tuning daemon: a TCP server sharing one experience database
//! across all client sessions.
//!
//! Threading model: an event-driven reactor (`reactor` module) — one
//! readiness loop (`epoll` on Linux, `poll(2)` on other Unixes; see
//! [`crate::poll`]) owning every connection's read/write buffers, so the
//! cost of an idle connection is a few hundred bytes of state instead of
//! a thread stack. The loop thread serves every request that cannot
//! wait (a `Fetch` or `Report` is an in-memory step of microseconds);
//! the few that can — on a clock or the whole database, as `may_wait`
//! decides — go to a small worker pool (a [`harmony_exec::TaskPool`]),
//! and requests pipelined behind them are parsed while they execute. On
//! a cluster a request that replicates is served inline too: it leaves
//! its `Peer*` messages in the connection's `Outbox`, and the reactor
//! sends them on its peer links and holds the response until every
//! peer has answered. Connections over
//! [`DaemonConfig::max_connections`] are refused with an in-protocol
//! `Error` rather than queued, so a stalled client cannot starve new
//! ones. Off Unix there is no readiness backend and no daemon:
//! [`TuningDaemon::start`] reports `Unsupported`.
//!
//! The experience database is an **atomic snapshot**: readers
//! (`SessionStart` classification, `DbQuery`) grab an
//! `Arc<DbSnapshot>` — an immutable database plus its prebuilt
//! [`CharacteristicsIndex`] — with nothing but a pointer load, so they
//! never wait on a writer. Recording a finished run costs that run, not
//! the database: the next snapshot shares every stored run with the
//! current one (runs sit behind `Arc`, so the copy is a list of
//! pointers) and extends the current index instead of rebuilding it,
//! then swaps the pointer under a small writer mutex; only concurrent
//! *writers* serialize, and the swap itself holds the read path's lock
//! for a single pointer store.
//!
//! Durability runs off the request path entirely: the same `Arc` that
//! went into the snapshot is handed to a background *flusher* thread
//! which appends it to a write-ahead journal (see
//! [`harmony::history::wal`]) and periodically folds everything it has
//! journaled into a fresh whole-file snapshot (*compaction*). A slow
//! disk therefore delays nothing but the flusher.
//!
//! Every session — the default simplex kernel included — is a
//! [`SearchEngine`] plus the `SessionRecord` that defines it: kernel
//! name, space, budget, warm-start prior and the observations so far.
//! That record is the only persisted shape (sessions file, peer
//! replicas); `build_session` turns one back into a live session by
//! deterministic replay, and `SessionStart` goes through the same
//! function with an empty trace.

use crate::cluster::{ClusterConfig, ClusterState, TOKEN_DRAWS};
use crate::codec::WireFormat;
use crate::protocol::{
    negotiate, Request, Response, RunSummary, SensitivityEntry, SpaceSpec, MIN_SUPPORTED_VERSION,
    PROTOCOL_VERSION,
};
use crate::NetError;
use harmony::engine::SearchEngine;
use harmony::history::wal::{self, WalWriter};
use harmony::history::{
    CharacteristicsIndex, DataAnalyzer, DbError, ExperienceDb, RunHistory, TuningRecord,
};
use harmony::kernel::SimplexOptions;
use harmony::report::TraceEntry;
use harmony::sensitivity::SensitivityReport;
use harmony::tuner::{SessionError, TrainingMode, Tuner, TuningOptions};
use harmony_engines::registry as engines;
use harmony_obs::event::{event, Level};
use harmony_obs::trace::{self, stage, TraceContext};
use harmony_space::{parse_rsl, Configuration, ParameterSpace};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the reactor's event wait wakes up to check for shutdown,
/// and how often its loop reaps expired sessions.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// `Peer*` messages a request queued for the cluster, as `(peer index,
/// request)`: the reactor sends each on that peer's link. A
/// `PeerShipRun`'s `seq` is drawn there, when it is queued on its link.
pub(crate) type Outbox = Vec<(usize, Request)>;

/// Daemon settings.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Address to bind (`"127.0.0.1:0"` picks a free port; read it back
    /// from [`DaemonHandle::addr`]).
    pub listen: String,
    /// Experience-database snapshot file. Loaded at startup when it
    /// exists (together with any journal alongside it); compacted to
    /// periodically and at shutdown. `None` keeps the database in
    /// memory only.
    pub db_path: Option<PathBuf>,
    /// Write-ahead journal file. Defaults to `db_path` with `.wal`
    /// appended; ignored when `db_path` is `None`.
    pub wal_path: Option<PathBuf>,
    /// Concurrent-connection cap; further connections are refused with
    /// an `Error` response.
    pub max_connections: usize,
    /// Default tuning options for sessions (clients may override the
    /// budget per session).
    pub tuning: TuningOptions,
    /// Classification mechanism and match gate.
    pub analyzer: DataAnalyzer,
    /// Fold journal + snapshot into a fresh snapshot after this many
    /// journal appends (0 compacts only at shutdown).
    pub compact_every: usize,
    /// Name reported in the `Hello` exchange.
    pub server_name: String,
    /// How long a disconnected session stays parked awaiting
    /// [`Request::Resume`] before the reactor folds whatever it measured
    /// into the experience database. Also bounds how long a finished
    /// session's cached summary stays answerable.
    pub session_ttl: Duration,
    /// Enable the distributed-tracing flight recorder at startup
    /// (answering [`Request::TraceDump`] with recorded span trees).
    /// Tracing is observation-only — trajectories are bit-identical
    /// either way. Enabling is process-global; `false` merely skips
    /// enabling (it never disables a recorder another daemon in the
    /// same process already enabled).
    pub tracing: bool,
    /// Multi-daemon clustering: the peer ring and replication policy
    /// (see [`crate::cluster`]). `None` serves the classic single-daemon
    /// mode, where the whole `Peer*` message family is refused.
    pub cluster: Option<ClusterConfig>,
}

impl DaemonConfig {
    /// A validated way to assemble a config: every combination the ad-hoc
    /// CLI checks used to police (`--wal` without `--db`, a compaction
    /// interval with nothing to compact, a connection cap of zero, an
    /// impossible peer ring) is refused at [`DaemonConfigBuilder::build`]
    /// instead of surfacing as a confusing runtime failure.
    pub fn builder() -> DaemonConfigBuilder {
        DaemonConfigBuilder {
            config: DaemonConfig::default(),
            wal_set: false,
            compact_set: false,
        }
    }
}

/// Builder for [`DaemonConfig`] — see [`DaemonConfig::builder`].
#[derive(Debug, Clone)]
pub struct DaemonConfigBuilder {
    config: DaemonConfig,
    wal_set: bool,
    compact_set: bool,
}

impl DaemonConfigBuilder {
    /// Address to bind.
    pub fn listen(mut self, addr: impl Into<String>) -> Self {
        self.config.listen = addr.into();
        self
    }

    /// Experience-database snapshot file.
    pub fn db_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.db_path = Some(path.into());
        self
    }

    /// Write-ahead journal file (requires a database path).
    pub fn wal_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.wal_path = Some(path.into());
        self.wal_set = true;
        self
    }

    /// Concurrent-connection cap.
    pub fn max_connections(mut self, n: usize) -> Self {
        self.config.max_connections = n;
        self
    }

    /// Compaction interval in journal appends (requires a database
    /// path — without one there is nothing to compact).
    pub fn compact_every(mut self, n: usize) -> Self {
        self.config.compact_every = n;
        self.compact_set = true;
        self
    }

    /// Enable or skip the distributed-tracing flight recorder.
    pub fn tracing(mut self, on: bool) -> Self {
        self.config.tracing = on;
        self
    }

    /// How long disconnected sessions stay parked awaiting `Resume`.
    pub fn session_ttl(mut self, ttl: Duration) -> Self {
        self.config.session_ttl = ttl;
        self
    }

    /// Join a cluster: this daemon's advertised ring identity, its
    /// peers' advertised addresses, and the replication factor.
    pub fn cluster(
        mut self,
        self_addr: impl Into<String>,
        peers: Vec<String>,
        replication: usize,
    ) -> Self {
        self.config.cluster = Some(ClusterConfig {
            self_addr: self_addr.into(),
            peers,
            replication,
        });
        self
    }

    /// Validate the combination and hand back the config.
    pub fn build(self) -> Result<DaemonConfig, String> {
        if self.wal_set && self.config.db_path.is_none() {
            return Err("a write-ahead journal needs a database (--wal requires --db)".into());
        }
        if self.compact_set && self.config.db_path.is_none() {
            return Err(
                "a compaction interval needs a database (--compact-every requires --db)".into(),
            );
        }
        if self.config.max_connections == 0 {
            return Err(
                "a connection cap of 0 refuses every client (--max-connections must be at least 1)"
                    .into(),
            );
        }
        if let Some(cluster) = &self.config.cluster {
            cluster.validate()?;
        }
        Ok(self.config)
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            listen: "127.0.0.1:0".into(),
            db_path: None,
            wal_path: None,
            max_connections: 32,
            tuning: TuningOptions::improved(),
            analyzer: DataAnalyzer::new(),
            compact_every: 64,
            server_name: "harmony-net".into(),
            session_ttl: Duration::from_secs(30),
            tracing: true,
            cluster: None,
        }
    }
}

/// Where the background flusher puts recorded runs.
///
/// The daemon's default sink journals to a [`WalWriter`] and compacts to
/// the snapshot file; tests inject slow or failing sinks via
/// [`TuningDaemon::start_with_sink`] to exercise the decoupling.
pub trait DbSink: Send {
    /// Append one recorded run to durable storage.
    fn append(&mut self, run: &RunHistory) -> Result<(), DbError>;
    /// Barrier after a batch of appends (an `fsync`, typically).
    fn sync(&mut self) -> Result<(), DbError> {
        Ok(())
    }
    /// Fold the full database into a compacted snapshot, superseding
    /// everything appended so far. `db` is the database the daemon
    /// loaded at start plus every run handed to
    /// [`append`](Self::append) since, in that order — never a run this
    /// sink has not been given yet.
    fn compact(&mut self, db: &ExperienceDb) -> Result<(), DbError>;
}

/// The standard sink: WAL appends plus whole-file snapshot compaction.
pub struct FileSink {
    snapshot: PathBuf,
    wal: WalWriter,
}

impl FileSink {
    /// Open (creating if needed) the journal next to the snapshot.
    pub fn open(snapshot: PathBuf, journal: PathBuf) -> Result<FileSink, DbError> {
        Ok(FileSink {
            snapshot,
            wal: WalWriter::open(journal)?,
        })
    }
}

impl DbSink for FileSink {
    fn append(&mut self, run: &RunHistory) -> Result<(), DbError> {
        self.wal.append_run(run)
    }

    fn sync(&mut self) -> Result<(), DbError> {
        self.wal.sync()
    }

    fn compact(&mut self, db: &ExperienceDb) -> Result<(), DbError> {
        wal::compact(db, &self.snapshot, &mut self.wal)
    }
}

/// Immutable view of the database at one point in time, with the
/// classification index that answers for exactly those runs.
struct DbSnapshot {
    db: ExperienceDb,
    index: CharacteristicsIndex,
}

/// Atomic-snapshot cell: readers clone an `Arc` under a momentary read
/// lock; writers serialize on `writer`, prepare the successor snapshot
/// outside any lock the readers see, then swap the pointer.
struct DbCell {
    current: RwLock<Arc<DbSnapshot>>,
    writer: Mutex<()>,
}

impl DbCell {
    fn new(db: ExperienceDb) -> DbCell {
        let index = db.build_index();
        DbCell {
            current: RwLock::new(Arc::new(DbSnapshot { db, index })),
            writer: Mutex::new(()),
        }
    }

    /// The current snapshot — a pointer clone, never blocked by writers.
    fn load(&self) -> Arc<DbSnapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Append by succession: the next snapshot shares every run with
    /// the current one (the clone copies pointers) and carries its index
    /// forward, so the cost is the one run, not the database. The run
    /// gauge moves with the swap, under the writer lock, so concurrent
    /// appends cannot leave it behind the database.
    fn add_run(&self, run: Arc<RunHistory>) {
        let _writing = self.writer.lock().expect("writer lock poisoned");
        let cur = self.load();
        let mut db = cur.db.clone();
        db.add_run(run);
        let index = cur.index.extended(&db);
        let len = db.len();
        *self.current.write().expect("snapshot lock poisoned") = Arc::new(DbSnapshot { db, index });
        crate::obs::db_snapshot_swaps_total().inc();
        crate::obs::db_runs().set(len as i64);
    }
}

/// A disconnected session waiting for its client to [`Request::Resume`].
struct ParkedSession {
    sess: ActiveSession,
    parked_at: Instant,
}

/// Token-keyed session state that outlives connections.
///
/// `parked` holds live sessions whose connection dropped; `completed`
/// caches the `SessionSummary` of finished sessions so a client that
/// lost the final response can replay `SessionEnd` idempotently. Both
/// sides expire at [`DaemonConfig::session_ttl`].
pub(crate) struct SessionRegistry {
    parked: Mutex<HashMap<String, ParkedSession>>,
    completed: Mutex<HashMap<String, (Response, Instant)>>,
    counter: AtomicU64,
    /// Per-process uniqueness component, so tokens issued after a
    /// restart cannot collide with ones loaded from the sessions file.
    epoch: String,
}

impl SessionRegistry {
    fn new() -> SessionRegistry {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        SessionRegistry {
            parked: Mutex::new(HashMap::new()),
            completed: Mutex::new(HashMap::new()),
            counter: AtomicU64::new(0),
            epoch: format!("{nanos:x}"),
        }
    }

    fn issue_token(&self) -> String {
        let n = self.counter.fetch_add(1, Ordering::SeqCst);
        format!("hs-{}-{n:x}", self.epoch)
    }

    /// Whether this registry could have issued `token` (this process's
    /// epoch, or a token revived from the sessions file at startup). A
    /// `Resume` for such a token is worth waiting for briefly — the
    /// session may be mid-park on another connection's teardown — while
    /// a foreign token is refused immediately.
    fn recognizes(&self, token: &str) -> bool {
        token.starts_with(&format!("hs-{}-", self.epoch))
            || self
                .parked
                .lock()
                .expect("parked sessions poisoned")
                .contains_key(token)
    }

    fn park(&self, token: String, sess: ActiveSession) {
        crate::obs::sessions_parked().inc();
        self.parked
            .lock()
            .expect("parked sessions poisoned")
            .insert(
                token,
                ParkedSession {
                    sess,
                    parked_at: Instant::now(),
                },
            );
    }

    fn unpark(&self, token: &str) -> Option<ActiveSession> {
        let taken = self
            .parked
            .lock()
            .expect("parked sessions poisoned")
            .remove(token)
            .map(|p| p.sess);
        if taken.is_some() {
            crate::obs::sessions_parked().dec();
        }
        taken
    }

    fn cache_summary(&self, token: String, summary: Response) {
        self.completed
            .lock()
            .expect("completed sessions poisoned")
            .insert(token, (summary, Instant::now()));
    }

    fn cached_summary(&self, token: &str) -> Option<Response> {
        self.completed
            .lock()
            .expect("completed sessions poisoned")
            .get(token)
            .map(|(r, _)| r.clone())
    }

    /// Remove and return every parked session older than `ttl`.
    fn take_expired(&self, ttl: Duration) -> Vec<ActiveSession> {
        let mut parked = self.parked.lock().expect("parked sessions poisoned");
        let dead: Vec<String> = parked
            .iter()
            .filter(|(_, p)| p.parked_at.elapsed() >= ttl)
            .map(|(k, _)| k.clone())
            .collect();
        let taken: Vec<ActiveSession> = dead
            .iter()
            .filter_map(|k| parked.remove(k))
            .map(|p| p.sess)
            .collect();
        for _ in &taken {
            crate::obs::sessions_parked().dec();
        }
        drop(parked);
        self.completed
            .lock()
            .expect("completed sessions poisoned")
            .retain(|_, (_, at)| at.elapsed() < ttl);
        taken
    }

    /// Remove and return everything parked (shutdown path).
    fn drain_all(&self) -> Vec<(String, ActiveSession)> {
        let mut parked = self.parked.lock().expect("parked sessions poisoned");
        let all: Vec<(String, ActiveSession)> =
            parked.drain().map(|(token, p)| (token, p.sess)).collect();
        for _ in &all {
            crate::obs::sessions_parked().dec();
        }
        all
    }
}

pub(crate) struct Shared {
    pub(crate) config: DaemonConfig,
    db: DbCell,
    /// Hands recorded runs to the flusher; `None` when nothing persists.
    /// Taking it closes the channel and stops the flusher.
    flusher_tx: Mutex<Option<mpsc::Sender<Arc<RunHistory>>>>,
    pub(crate) registry: SessionRegistry,
    pub(crate) active: AtomicUsize,
    completed: AtomicUsize,
    pub(crate) shutdown: AtomicBool,
    pub(crate) draining: AtomicBool,
    /// The peer ring; `None` when clustering is off.
    pub(crate) cluster: Option<Arc<ClusterState>>,
    /// Session records replicated here on behalf of peer owners, keyed
    /// by token and kept current by the owner's steps: if the owner
    /// dies, the client's `Resume` lands here (the token's next ring
    /// successor) and the record becomes a live adopted session.
    replicas: Mutex<HashMap<String, SessionRecord>>,
}

impl Shared {
    /// Classify `observed` against the shared experience (§4.2).
    fn select_prior(&self, observed: &[f64]) -> Option<RunHistory> {
        let snap = self.db.load();
        self.config
            .analyzer
            .select_with(&snap.db, Some(&snap.index), observed)
    }

    /// Fold a recorded run into the shared database and queue it for
    /// the flusher — one allocation, referenced from both.
    fn record_run(&self, run: Arc<RunHistory>) {
        self.db.add_run(Arc::clone(&run));
        if let Some(tx) = self
            .flusher_tx
            .lock()
            .expect("flusher sender poisoned")
            .as_ref()
        {
            // A dead flusher only costs durability, not serving.
            let _ = tx.send(run);
        }
    }

    /// [`record_run`](Self::record_run) plus cluster fan-out: queue the
    /// run for its replica set. Locally-originated recordings come
    /// through here; peer-shipped ones call `record_run` directly, which
    /// is what keeps replication a single hop (a daemon never re-ships
    /// what a peer shipped to it).
    fn record_run_and_replicate(&self, run: Arc<RunHistory>, outbox: &mut Outbox) {
        if let Some(cluster) = &self.cluster {
            for peer in cluster.run_targets(&run.characteristics) {
                let ship = Request::PeerShipRun {
                    origin: cluster.self_addr().to_string(),
                    seq: 0,
                    run: Arc::clone(&run),
                };
                outbox.push((peer, ship));
            }
        }
        self.record_run(run);
    }

    /// A session is over for good — ended by its client, or expired
    /// while parked: its replicas have nothing left to fail over to.
    /// (Shutdown does not come through here: the replicas are what the
    /// parked sessions' clients resume from.)
    fn retire(&self, token: &str, outbox: &mut Outbox) {
        if let Some(cluster) = &self.cluster {
            for peer in cluster.session_targets(token) {
                let drop = Request::PeerDropSession {
                    origin: cluster.self_addr().to_string(),
                    token: token.to_string(),
                };
                outbox.push((peer, drop));
            }
        }
    }

    /// Hold a peer-shipped session record for possible adoption,
    /// replacing whatever was held for the token.
    fn store_replica(&self, token: String, record: SessionRecord) {
        let mut replicas = self.replicas.lock().expect("replica store poisoned");
        replicas.insert(token, record);
        crate::obs::shard_replica_sessions_entries().set(replicas.len() as i64);
    }

    /// Append one peer-shipped observation to the replica it continues.
    /// `Err` is the refusal that makes the owner ship the whole record:
    /// there is no replica for the token, or `entry` is not the next
    /// one of the trace held (nor a second delivery of its last).
    fn apply_step(&self, token: &str, entry: TraceEntry, next_seq: u64) -> Result<(), String> {
        let mut replicas = self.replicas.lock().expect("replica store poisoned");
        let Some(replica) = replicas.get_mut(token) else {
            return Err(format!("no replica of session {token}"));
        };
        let held = replica.trace.len();
        if held == entry.iteration + 1 && replica.trace[entry.iteration] == entry {
            // A retried delivery of the step applied last.
            return Ok(());
        }
        let continues = held == entry.iteration
            && entry.config.len() == replica.space.len()
            && entry.performance.is_finite();
        if !continues {
            return Err(format!(
                "step {} does not continue the {held} observations held for session {token}",
                entry.iteration
            ));
        }
        replica.trace.push(entry);
        replica.next_seq = next_seq;
        Ok(())
    }

    /// Drop a replica (its session ended at the owner).
    fn drop_replica(&self, token: &str) {
        let mut replicas = self.replicas.lock().expect("replica store poisoned");
        if replicas.remove(token).is_some() {
            crate::obs::shard_replica_sessions_entries().set(replicas.len() as i64);
        }
    }

    /// Take a replica for adoption: its owner is gone and the client's
    /// `Resume` landed here.
    fn adopt_replica(&self, token: &str) -> Option<SessionRecord> {
        let mut replicas = self.replicas.lock().expect("replica store poisoned");
        let taken = replicas.remove(token);
        if taken.is_some() {
            crate::obs::shard_replica_sessions_entries().set(replicas.len() as i64);
        }
        taken
    }

    fn run_summaries(&self) -> Vec<RunSummary> {
        self.db
            .load()
            .db
            .runs()
            .iter()
            .map(|run| RunSummary {
                label: run.label.clone(),
                characteristics: run.characteristics.clone(),
                records: run.records.len(),
                best_performance: run.best().map(|r| r.performance),
            })
            .collect()
    }
}

/// The journal lives next to the snapshot unless configured elsewhere.
fn effective_wal_path(config: &DaemonConfig, db_path: &Path) -> PathBuf {
    config.wal_path.clone().unwrap_or_else(|| {
        let mut name = db_path.as_os_str().to_os_string();
        name.push(".wal");
        PathBuf::from(name)
    })
}

/// Resumable sessions persist next to the snapshot at shutdown.
fn sessions_path(db_path: &Path) -> PathBuf {
    let mut name = db_path.as_os_str().to_os_string();
    name.push(".sessions");
    PathBuf::from(name)
}

/// Everything that defines a session, and everything a successor daemon
/// needs to continue its exact trajectory — the one shape written to the
/// sessions file and shipped between peers.
///
/// Engines are not serializable themselves; [`build_session`] rebuilds
/// one — same kernel, same [`engines::DEFAULT_SEED`], same warm start —
/// and replays `trace` through it. Engines are deterministic, so the
/// rebuilt engine continues the exact trajectory the original would
/// have produced, and the outstanding proposal (if the client had
/// fetched one) is recomputed by the idempotent ask.
#[derive(Serialize, Deserialize)]
struct SessionRecord {
    /// Resume token, issued on protocol ≥ 2 connections. A tokened
    /// session parks on disconnect instead of being abandoned, and only
    /// tokened sessions are ever persisted or shipped.
    token: Option<String>,
    /// The registry engine `SessionStart::engine` named; absent for the
    /// daemon's default kernel (the simplex under
    /// [`DaemonConfig::tuning`], trained per [`DaemonConfig::training`]).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    engine: Option<String>,
    space: ParameterSpace,
    budget: usize,
    /// Every observation in order — the live trace and the replay
    /// script.
    trace: Vec<TraceEntry>,
    label: String,
    characteristics: Vec<f64>,
    /// The prior run selected at `SessionStart`, kept for `Sensitivity`
    /// and for repeating the warm start on a rebuild.
    prior: Option<RunHistory>,
    /// The next `Report` sequence number accepted; everything below it
    /// was already observed and a replay answers `Reported` unchanged.
    next_seq: u64,
}

impl SessionRecord {
    /// Split out the token a persisted or shipped record must carry.
    fn tokened(self) -> Result<(String, SessionRecord), String> {
        match self.token.clone() {
            Some(token) => Ok((token, self)),
            None => Err("session record carries no token".into()),
        }
    }
}

/// How matched prior experience trains a default-kernel session (§4.2).
const TRAINING: TrainingMode = TrainingMode::Replay(12);

/// Bring a session to life from its record: build the kernel, repeat the
/// warm start, replay the trace. `SessionStart` (empty trace), the
/// sessions file a predecessor wrote, and adoption of a peer-shipped
/// replica all come through here, which is what makes a resumed
/// trajectory identical to an uninterrupted one.
fn build_session(record: SessionRecord, config: &DaemonConfig) -> Result<ActiveSession, String> {
    let mut engine: Box<dyn SearchEngine + Send> = match &record.engine {
        Some(name) => engines::lookup(name).map_err(|e| e.to_string())?.build(
            record.space.clone(),
            record.budget,
            engines::DEFAULT_SEED,
        ),
        None => Box::new(
            Tuner::new(
                record.space.clone(),
                config.tuning.clone().with_max_iterations(record.budget),
            )
            .session_with(SimplexOptions::default(), TRAINING),
        ),
    };
    if let Some(history) = &record.prior {
        let _span = trace::child(stage::WARM_START, &history.label);
        engine.warm_start(history);
    }
    for entry in &record.trace {
        if engine.next_config().is_none() {
            break;
        }
        engine
            .observe(entry.performance)
            .map_err(|e| e.to_string())?;
    }
    Ok(ActiveSession {
        record,
        engine,
        pending: None,
    })
}

/// Queue a live session's whole record for the token's replica set: how
/// a replica comes to exist when the session starts. A no-op without a
/// cluster or a token.
fn ship_snapshot(shared: &Shared, sess: &ActiveSession, outbox: &mut Outbox) {
    let (Some(cluster), Some(token)) = (&shared.cluster, &sess.record.token) else {
        return;
    };
    if let Some(ship) = session_ship(cluster, &sess.record) {
        outbox.extend(
            cluster
                .session_targets(token)
                .map(|peer| (peer, ship.clone())),
        );
    }
}

/// Queue the observation a `Report` just appended for the token's
/// replica set. The reactor holds the client's acknowledgment until
/// every replica has answered — it must imply the replicas hold the
/// observation, or a failover could lose acknowledged progress. What
/// travels is that one trace entry; the whole record follows only to a
/// replica that refuses the step (see [`resync_ship`]).
fn ship_step(shared: &Shared, sess: &ActiveSession, outbox: &mut Outbox) {
    let (Some(cluster), Some(token)) = (&shared.cluster, &sess.record.token) else {
        return;
    };
    let Some(entry) = sess.record.trace.last() else {
        return;
    };
    for peer in cluster.session_targets(token) {
        let step = Request::PeerShipStep {
            token: token.clone(),
            iteration: entry.iteration,
            next_seq: sess.record.next_seq,
            values: entry.config.values().to_vec(),
            performance: entry.performance,
        };
        outbox.push((peer, step));
    }
}

/// The whole-record ship for the session `conn` holds: the reactor's
/// answer to a replica that refused one of its steps. The connection is
/// held until that replica answers, so the record is the one the step
/// came from.
pub(crate) fn resync_ship(shared: &Shared, conn: &ConnState) -> Option<Request> {
    session_ship(shared.cluster.as_ref()?, &conn.active.as_ref()?.record)
}

/// A `PeerShipSession` carrying `record`, serialized as the sessions
/// file holds it.
fn session_ship(cluster: &ClusterState, record: &SessionRecord) -> Option<Request> {
    Some(Request::PeerShipSession {
        origin: cluster.self_addr().to_string(),
        session: serde_json::to_string(record).ok()?,
    })
}

/// A persisted session this version cannot read or rebuild — one written
/// in the pre-replay `session: <TuningSession>` shape, say — is refused
/// on its own, never as a failure of whatever carried it.
fn revive_failed(token: &str, error: String) {
    event(Level::Error, "net.session_revive_failed")
        .str("token", token)
        .str("error", error)
        .emit();
}

/// Load (and remove) the sessions file a predecessor left behind,
/// parking its sessions for `Resume`.
fn load_parked_sessions(registry: &SessionRegistry, config: &DaemonConfig, db_path: &Path) {
    let path = sessions_path(db_path);
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    // Consumed either way: a file that fails to parse must not poison
    // every future startup.
    let _ = std::fs::remove_file(&path);
    let loaded: Vec<serde_json::Value> = match serde_json::from_str(&text) {
        Ok(sessions) => sessions,
        Err(e) => {
            event(Level::Error, "net.sessions_load_failed")
                .str("path", path.display().to_string())
                .str("error", e.to_string())
                .emit();
            return;
        }
    };
    let mut count = 0u64;
    for value in &loaded {
        let revived = serde_json::from_value::<SessionRecord>(value)
            .map_err(|e| e.to_string())
            .and_then(SessionRecord::tokened)
            .and_then(|(token, record)| Ok((token, build_session(record, config)?)));
        match revived {
            Ok((token, sess)) => {
                registry.park(token, sess);
                count += 1;
            }
            Err(e) => revive_failed(value.get("token").and_then(|t| t.as_str()).unwrap_or(""), e),
        }
    }
    if count > 0 {
        event(Level::Info, "net.sessions_loaded")
            .str("path", path.display().to_string())
            .u64("sessions", count)
            .emit();
    }
}

/// The daemon entry point.
pub struct TuningDaemon;

impl TuningDaemon {
    /// Bind, load any persisted experience (snapshot plus journal), and
    /// start serving.
    pub fn start(config: DaemonConfig) -> Result<DaemonHandle, NetError> {
        let sink = match &config.db_path {
            Some(path) => {
                let journal = effective_wal_path(&config, path);
                let sink = FileSink::open(path.clone(), journal)
                    .map_err(|e| NetError::Protocol(format!("cannot open wal: {e}")))?;
                Some(Box::new(sink) as Box<dyn DbSink>)
            }
            None => None,
        };
        Self::start_inner(config, sink)
    }

    /// [`start`](Self::start) with a caller-provided persistence sink —
    /// how tests observe (or sabotage) the background flusher.
    pub fn start_with_sink(
        config: DaemonConfig,
        sink: Box<dyn DbSink>,
    ) -> Result<DaemonHandle, NetError> {
        Self::start_inner(config, Some(sink))
    }

    /// Off Unix there is no readiness backend (`crate::poll` is
    /// Unix-only), so there is no daemon to start.
    #[cfg(not(unix))]
    fn start_inner(
        _config: DaemonConfig,
        _sink: Option<Box<dyn DbSink>>,
    ) -> Result<DaemonHandle, NetError> {
        Err(NetError::Io(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the tuning daemon needs a Unix readiness poller (epoll or poll(2))",
        )))
    }

    #[cfg(unix)]
    fn start_inner(
        config: DaemonConfig,
        sink: Option<Box<dyn DbSink>>,
    ) -> Result<DaemonHandle, NetError> {
        let db = match &config.db_path {
            Some(path) => {
                let journal = effective_wal_path(&config, path);
                wal::load_with_wal(path, &journal)
                    .map_err(|e| NetError::Protocol(format!("cannot load experience db: {e}")))?
            }
            None => ExperienceDb::new(),
        };
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        crate::obs::preregister_daemon();
        if config.tracing && !trace::is_enabled() {
            trace::enable(trace::RecorderConfig::default());
        }
        crate::obs::db_runs().set(db.len() as i64);
        event(Level::Info, "net.daemon_start")
            .str("addr", addr.to_string())
            .u64("db_runs", db.len() as u64)
            .emit();
        let (tx, rx) = mpsc::channel();
        let cluster = match &config.cluster {
            Some(c) => Some(Arc::new(
                ClusterState::new(c.clone()).map_err(NetError::Protocol)?,
            )),
            None => None,
        };
        // The flusher's copy of what is already on disk: pointers only.
        let journaled = db.clone();
        let shared = Arc::new(Shared {
            config,
            db: DbCell::new(db),
            flusher_tx: Mutex::new(sink.is_some().then_some(tx)),
            registry: SessionRegistry::new(),
            active: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            cluster,
            replicas: Mutex::new(HashMap::new()),
        });
        // `std` binds with a 128-entry accept backlog; a burst of a few
        // hundred simultaneous connects overflows that, and every dropped
        // SYN costs its client a ~1s retransmission timeout (the kernel
        // clamps the wider queue to somaxconn).
        crate::poll::widen_listen_backlog(&listener, 4096);
        // Built here rather than on its own thread: a poller that cannot
        // be created (descriptor exhaustion) must fail the start, not
        // leave a bound port that nothing serves.
        let reactor = crate::reactor::Reactor::new(listener, Arc::clone(&shared))?;
        // Nothing below can fail, so the predecessor's sessions file is
        // only consumed by a daemon that goes on to serve it.
        if let Some(path) = &shared.config.db_path {
            load_parked_sessions(&shared.registry, &shared.config, path);
        }
        let flusher = sink.map(|sink| {
            let compact_every = shared.config.compact_every;
            std::thread::spawn(move || flusher_loop(rx, sink, journaled, compact_every))
        });
        let acceptor = std::thread::spawn(move || reactor.serve());
        Ok(DaemonHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            flusher,
        })
    }
}

/// The keepalive sweep, run by the reactor's loop every
/// [`POLL_INTERVAL`]: folds parked sessions whose TTL expired into the
/// experience database, retires their replicas, and drops stale cached
/// summaries.
pub(crate) fn reap_expired(shared: &Shared, outbox: &mut Outbox) {
    for sess in shared.registry.take_expired(shared.config.session_ttl) {
        crate::obs::session_ttl_expirations_total().inc();
        crate::obs::sessions_abandoned_total().inc();
        event(Level::Warn, "net.session_ttl_expired")
            .str("label", &sess.record.label)
            .u64("iterations", sess.iterations() as u64)
            .emit();
        let token = sess.record.token.clone();
        if sess.iterations() > 0 {
            record_session(sess, shared, outbox);
        }
        if let Some(token) = token {
            shared.retire(&token, outbox);
        }
    }
}

/// A running daemon. Dropping the handle shuts the daemon down.
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    flusher: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound address (useful with a `:0` listen port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Completed sessions since startup.
    pub fn completed_sessions(&self) -> usize {
        self.shared.completed.load(Ordering::SeqCst)
    }

    /// Runs currently in the shared experience database.
    pub fn db_runs(&self) -> usize {
        self.shared.db.load().db.len()
    }

    /// Enter drain mode without stopping: new connections and
    /// session-advancing requests (`SessionStart`, `Resume`, `Fetch`,
    /// `Report`) are answered with [`Response::Draining`], which clients
    /// treat as retryable; `SessionEnd` and admin requests still serve so
    /// in-flight sessions can finish. [`shutdown`](Self::shutdown) drains
    /// implicitly.
    pub fn drain(&self) {
        if !self.shared.draining.swap(true, Ordering::SeqCst) {
            event(Level::Info, "net.daemon_draining")
                .str("addr", self.addr.to_string())
                .emit();
        }
    }

    /// Whether [`drain`](Self::drain) was called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Stop accepting, wait for the reactor to settle its connections,
    /// persist the database (drain the flusher and compact), and write
    /// parked resumable sessions to the sessions file next to the
    /// database so a successor daemon can honor their tokens.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.drain();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = acceptor.join();
        // The reactor's teardown has parked every tokened session by now
        // (and, when nothing persists, recorded them); persist them before
        // the flusher compacts.
        persist_parked(&self.shared);
        // Closing the channel ends the flusher loop; it drains queued
        // runs and compacts once more on the way out, so the snapshot
        // file alone holds the full database.
        self.shared
            .flusher_tx
            .lock()
            .expect("flusher sender poisoned")
            .take();
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
        event(Level::Info, "net.daemon_shutdown")
            .str("addr", self.addr.to_string())
            .u64(
                "completed_sessions",
                self.shared.completed.load(Ordering::SeqCst) as u64,
            )
            .emit();
    }
}

/// Shutdown path for parked sessions when a database path exists: write
/// them to the sessions file, so their tokens stay resumable across the
/// restart. (Without one, the reactor's teardown has recorded them:
/// see [`record_parked`].)
fn persist_parked(shared: &Shared) {
    let Some(db_path) = &shared.config.db_path else {
        return;
    };
    let parked = shared.registry.drain_all();
    if parked.is_empty() {
        return;
    }
    let persisted: Vec<&SessionRecord> = parked.iter().map(|(_, sess)| &sess.record).collect();
    let path = sessions_path(db_path);
    let write = serde_json::to_string(&persisted)
        .map_err(|e| e.to_string())
        .and_then(|text| std::fs::write(&path, text).map_err(|e| e.to_string()));
    match write {
        Ok(()) => event(Level::Info, "net.sessions_persisted")
            .str("path", path.display().to_string())
            .u64("sessions", persisted.len() as u64)
            .emit(),
        Err(e) => {
            crate::obs::db_persist_failures_total().inc();
            event(Level::Error, "net.sessions_persist_failed")
                .str("path", path.display().to_string())
                .str("error", e)
                .emit();
        }
    }
}

/// Shutdown path for parked sessions when nothing persists: fold
/// whatever they measured into the in-memory database's last compaction
/// like any abandoned session. Recording ships the runs, so the
/// reactor's teardown runs this while its peer links are still up.
pub(crate) fn record_parked(shared: &Shared, outbox: &mut Outbox) {
    if shared.config.db_path.is_some() {
        return;
    }
    for (_, sess) in shared.registry.drain_all() {
        crate::obs::sessions_abandoned_total().inc();
        if sess.iterations() > 0 {
            record_session(sess, shared, outbox);
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The background flusher: drains recorded runs, appends them to the
/// sink in coalesced batches, and compacts every
/// [`DaemonConfig::compact_every`] appends plus once at shutdown.
///
/// `journaled` is the flusher's own database: what the daemon loaded at
/// start, plus each run as it is appended, in journal order. Compaction
/// writes that and never the serving snapshot, which may already hold
/// runs still queued in `rx` — snapshotting those and then journaling
/// them after the truncation would store them twice.
fn flusher_loop(
    rx: mpsc::Receiver<Arc<RunHistory>>,
    mut sink: Box<dyn DbSink>,
    mut journaled: ExperienceDb,
    compact_every: usize,
) {
    let mut since_compact = 0usize;
    while let Ok(first) = rx.recv() {
        // Coalesce whatever queued up while the last batch was on disk:
        // a slow sink batches harder instead of falling further behind.
        let mut batch = vec![first];
        while let Ok(more) = rx.try_recv() {
            batch.push(more);
        }
        since_compact += batch.len();
        for run in batch {
            if let Err(e) = sink.append(&run) {
                persist_failure("net.db_wal_append_failed", &e);
            }
            // Kept even when the append failed: the next compaction is
            // that run's second chance to reach the disk.
            journaled.add_run(run);
        }
        if let Err(e) = sink.sync() {
            persist_failure("net.db_wal_sync_failed", &e);
        }
        if compact_every > 0 && since_compact >= compact_every {
            compact_now(&journaled, sink.as_mut());
            since_compact = 0;
        }
    }
    // Channel closed: final fold so a plain snapshot load sees
    // everything (the restart path reads snapshot + journal anyway).
    compact_now(&journaled, sink.as_mut());
}

fn compact_now(journaled: &ExperienceDb, sink: &mut dyn DbSink) {
    if let Err(e) = sink.compact(journaled) {
        persist_failure("net.db_compact_failed", &e);
    }
}

fn persist_failure(what: &'static str, e: &DbError) {
    crate::obs::db_persist_failures_total().inc();
    event(Level::Error, what).str("error", e.to_string()).emit();
}

/// One live session: its [`SessionRecord`] (kept current, so persisting
/// or shipping the session is serializing that field) and the search
/// driving it — the paper's simplex tuner by default, or any engine from
/// the `harmony-engines` registry named by `SessionStart::engine`. Both
/// sit behind [`SearchEngine`], so every request handler is
/// kernel-agnostic.
pub(crate) struct ActiveSession {
    record: SessionRecord,
    engine: Box<dyn SearchEngine + Send>,
    /// The outstanding proposal, so `observe` records the configuration
    /// that was actually measured.
    pending: Option<Configuration>,
}

impl ActiveSession {
    /// The outstanding proposal, asking the engine for a new one when
    /// none is. Only a new one counts as proposed: a repeated `Fetch` —
    /// a retry, or a client that dropped a pipelined answer and asks
    /// again — gets the same one.
    fn next_config(&mut self) -> Option<&Configuration> {
        let fresh = self.pending.is_none();
        self.pending = self.engine.next_config();
        if fresh && self.pending.is_some() {
            harmony::obs::engine_proposals_total(self.engine.name()).inc();
        }
        self.pending.as_ref()
    }

    fn observe(&mut self, performance: f64) -> Result<(), String> {
        let Some(config) = self.pending.take() else {
            return Err(SessionError::NoPendingConfiguration.to_string());
        };
        self.engine
            .observe(performance)
            .map_err(|e| e.to_string())?;
        harmony::obs::engine_evaluations_total(self.engine.name()).inc();
        self.record.trace.push(TraceEntry {
            iteration: self.record.trace.len(),
            config,
            performance,
        });
        Ok(())
    }

    fn iterations(&self) -> usize {
        self.record.trace.len()
    }
}

/// Per-connection protocol state: the live session plus what `Hello`
/// negotiated.
pub(crate) struct ConnState {
    pub(crate) active: Option<ActiveSession>,
    /// Negotiated protocol version. Tokens and sequence numbers only
    /// exist from version 2 on.
    version: u32,
    /// Payload encoding for frames *after* the current request: JSON
    /// until `Hello` lands on version ≥ 3, binary from the next frame
    /// on. The reactor captures the format before serving a request,
    /// so the `Hello` response itself still travels in the
    /// pre-negotiation format.
    format: WireFormat,
    /// Set when `Resume` named an already-finished session: the
    /// follow-up `SessionEnd` answers from the cached summary.
    completed_token: Option<String>,
    /// Set by a successful `PeerHello`: this connection is a cluster
    /// peer and may ship `Peer*` traffic. Client-facing connections
    /// never set it, so the `Peer*` family is refused there.
    peer: bool,
    /// What the request just served replicates. The reactor takes it
    /// after every request and holds the response until each ship is
    /// answered.
    pub(crate) outbox: Outbox,
    /// The trace the outbox's `peer.ship` spans join: the request's
    /// serve span, when its trace outlives the response.
    pub(crate) ship_trace: Option<TraceContext>,
}

impl ConnState {
    /// The state a connection starts in, before `Hello` negotiates
    /// anything: the oldest supported protocol version (a client that
    /// skips `Hello` gets v1 semantics), JSON framing, and no session.
    pub(crate) fn new() -> ConnState {
        ConnState {
            active: None,
            version: MIN_SUPPORTED_VERSION,
            format: WireFormat::Json,
            completed_token: None,
            peer: false,
            outbox: Vec::new(),
            ship_trace: None,
        }
    }

    /// The payload encoding this connection currently speaks.
    pub(crate) fn wire_format(&self) -> WireFormat {
        self.format
    }
}

/// Disconnect teardown: park a tokened session for `Resume`, fold an
/// abandoned v1 session's measurements into the experience database.
/// Runs for every connection that ended at a frame boundary, by EOF or
/// by a reset; one that ended inside a frame, framed garbage, or whose
/// request panicked drops its session instead. On a cluster, recording
/// queues the run in `conn.outbox`; the reactor ships it with nobody
/// waiting on the answer.
pub(crate) fn finish_connection(conn: &mut ConnState, shared: &Shared) {
    if let Some(sess) = conn.active.take() {
        match sess.record.token.clone() {
            // A tokened session parks, waiting for `Resume` on a new
            // connection (or the TTL reaper).
            Some(token) => {
                event(Level::Info, "net.session_parked")
                    .str("label", &sess.record.label)
                    .u64("iterations", sess.iterations() as u64)
                    .emit();
                shared.registry.park(token, sess);
            }
            // A dropped v1 connection abandons its session: whatever was
            // measured is still experience worth keeping.
            None => {
                crate::obs::sessions_abandoned_total().inc();
                event(Level::Warn, "net.session_abandoned")
                    .str("label", &sess.record.label)
                    .u64("iterations", sess.iterations() as u64)
                    .emit();
                if sess.iterations() > 0 {
                    record_session(sess, shared, &mut conn.outbox);
                }
            }
        }
    }
}

/// Serve one decoded request end to end: unwrap the trace envelope,
/// time it, open the serve span, dispatch to [`handle_request`], and
/// emit the response through `write` with the protocol-required
/// ordering (a `SessionEnd`'s trace is sealed *before* its response
/// unblocks the client). Runs on the reactor's loop thread, or on its
/// worker pool when [`may_wait`] says the request can wait.
///
/// A request that replicates leaves its ships in `conn.outbox`, and the
/// reactor holds the written response until they are answered. Their
/// `peer.ship` spans join the request's trace only when that trace
/// outlives the response: not a bare request's fresh root, and not the
/// session trace a `SessionEnd` seals.
pub(crate) fn serve_request(
    request: Request,
    read_window: Option<(u64, u64)>,
    conn: &mut ConnState,
    shared: &Shared,
    write: &mut dyn FnMut(&Response) -> Result<(), NetError>,
) -> Result<(), NetError> {
    // Unwrap the trace envelope, if any: absorb piggybacked client
    // spans (rebased onto this process's clock) and remember the
    // propagated context so the serve span joins the caller's trace.
    let (request, tctx) = match request {
        Request::Traced {
            trace_id,
            parent_span,
            spans,
            request,
        } => {
            if trace::is_enabled() && !spans.is_empty() {
                trace::ingest(trace_id, spans.into_iter().map(Into::into).collect(), true);
            }
            (
                *request,
                Some(TraceContext {
                    trace_id,
                    span_id: parent_span,
                }),
            )
        }
        other => (other, None),
    };
    let is_session_end = matches!(request, Request::SessionEnd);
    let kind = request.kind();
    let timer = crate::obs::request_seconds(kind).start_timer();
    // Bare requests on a tracing daemon each get a fresh root trace;
    // traced requests continue the caller's.
    let mut serve_span = match tctx {
        Some(ctx) => trace::continue_from(ctx, stage::SERVE, kind),
        None => trace::start_root(stage::SERVE, kind),
    };
    let fresh_root = match (&tctx, serve_span.context()) {
        (None, Some(ctx)) => Some(ctx.trace_id),
        _ => None,
    };
    if let Some(ctx) = serve_span.context() {
        if let Some((start_us, end_us)) = read_window {
            // The frame read finished before the serve span opened, so
            // it is recorded by hand: under the propagated parent when
            // there is one, else under the fresh root.
            let parent = tctx.map(|c| c.span_id).unwrap_or(ctx.span_id);
            trace::record_span(
                ctx.trace_id,
                trace::new_id(),
                parent,
                stage::NET_READ,
                "",
                start_us,
                end_us,
                false,
            );
        }
    }
    let response = handle_request(request, conn, shared);
    if matches!(response, Response::Error { .. }) {
        crate::obs::errors_total().inc();
        serve_span.mark_error();
    }
    if tctx.is_some() && !is_session_end && !conn.outbox.is_empty() {
        conn.ship_trace = serve_span.context();
    }
    if is_session_end {
        // A session's trace closes with the session — and it must be
        // sealed BEFORE the response unblocks the client: an
        // in-process client shares this recorder, and its
        // post-response cleanup would otherwise race the finalize
        // and discard the spans first. (The SessionEnd latency
        // histogram consequently excludes response-write time.)
        drop(timer);
        drop(serve_span);
        match tctx {
            Some(ctx) => {
                trace::finalize_with_root(ctx.trace_id, ctx.span_id);
                crate::obs::traces_finalized_total().inc();
            }
            None => {
                if let Some(trace_id) = fresh_root {
                    trace::finalize_with_root(trace_id, 0);
                    crate::obs::traces_finalized_total().inc();
                }
            }
        }
        write(&response)?;
        crate::obs::requests_total(kind).inc();
    } else {
        write(&response)?;
        // The timer drops while the serve span is still current so
        // the request-latency histogram picks up an exemplar trace
        // id.
        drop(timer);
        crate::obs::requests_total(kind).inc();
        drop(serve_span);
        // A bare request's fresh root closes with its response.
        if let Some(trace_id) = fresh_root {
            trace::finalize_with_root(trace_id, 0);
            crate::obs::traces_finalized_total().inc();
        }
    }
    Ok(())
}

/// Whether serving `request` can wait — on a clock or the whole
/// database — and so must leave the reactor's loop thread for its worker
/// pool, where it stalls no other connection. Everything else is an
/// in-memory step of microseconds and runs on the loop thread, which
/// saves the request two thread hand-offs.
///
/// Pooled, and why:
/// - `Resume`: its grace poll sleeps.
/// - `DbQuery`, `Stats`, `TraceDump` and `Sensitivity`: their answers grow
///   with the database, the metrics registry, the trace buffer or the
///   prior.
///
/// Inline: `Hello`, `Fetch`, `SessionStart`, `Report`, `SessionEnd` —
/// clustered or not: on a cluster what they replicate goes into the
/// outbox, and the reactor's peer links wait for the answers, not the
/// request — and every `Peer*` receipt, which only takes in-memory locks
/// and never ships onward, so two members shipping to each other never
/// wait on each other's loop. The match has no catch-all arm: a new
/// request kind has to choose.
pub(crate) fn may_wait(request: &Request) -> bool {
    match request {
        Request::Resume { .. } => true,
        Request::DbQuery | Request::Stats | Request::TraceDump | Request::Sensitivity => true,
        Request::Traced { request, .. } => may_wait(request),
        Request::Hello { .. }
        | Request::SessionStart { .. }
        | Request::Report { .. }
        | Request::SessionEnd
        | Request::Fetch
        | Request::PeerHello { .. }
        | Request::PeerShipSession { .. }
        | Request::PeerDropSession { .. }
        | Request::PeerShipStep { .. }
        | Request::PeerShipRun { .. } => false,
    }
}

fn handle_request(request: Request, conn: &mut ConnState, shared: &Shared) -> Response {
    // While draining, anything that would advance or create session
    // state is refused with `Draining` (retryable; the state is parked
    // for the successor daemon). `SessionEnd` and the read-only admin
    // requests still serve so in-flight sessions can wrap up.
    if shared.draining.load(Ordering::SeqCst)
        && matches!(
            request,
            Request::SessionStart { .. }
                | Request::Resume { .. }
                | Request::Fetch
                | Request::Report { .. }
        )
    {
        crate::obs::draining_responses_total().inc();
        return Response::Draining;
    }
    let active = &mut conn.active;
    match request {
        Request::Hello {
            version,
            min_version,
            max_version,
            client: _,
        } => {
            // A v1 client sends `version` alone — the degenerate range.
            let (lo, hi) = match (version, min_version, max_version) {
                (_, Some(lo), Some(hi)) => (lo, hi),
                (Some(v), _, _) => (v, v),
                _ => {
                    return Response::Error {
                        message: "Hello carries neither a version nor a version range".into(),
                    }
                }
            };
            match negotiate(lo, hi) {
                Some(v) => {
                    conn.version = v;
                    // v3 == binary framing; the switch takes effect on
                    // the next frame (this response still goes out in
                    // the format the caller captured before serving).
                    conn.format = if v >= 3 {
                        WireFormat::Binary
                    } else {
                        WireFormat::Json
                    };
                    Response::Hello {
                        version: v,
                        server: shared.config.server_name.clone(),
                    }
                }
                None => Response::Error {
                    message: format!(
                        "protocol version mismatch: client speaks [{lo}, {hi}], \
                         server speaks [{MIN_SUPPORTED_VERSION}, {PROTOCOL_VERSION}]"
                    ),
                },
            }
        }
        Request::SessionStart {
            space,
            label,
            characteristics,
            max_iterations,
            engine,
        } => {
            if active.is_some() {
                return Response::Error {
                    message: "a session is already active on this connection".into(),
                };
            }
            let space = match resolve_space(space) {
                Ok(s) => s,
                Err(message) => return Response::Error { message },
            };
            // Refused at the request boundary, like a non-finite
            // `Report`: such a number has no JSON spelling, so once
            // recorded it would make the WAL and the snapshot unloadable.
            if characteristics.iter().any(|c| !c.is_finite()) {
                return Response::Error {
                    message: "characteristics must be finite numbers".into(),
                };
            }
            if let Some(name) = &engine {
                if let Err(e) = engines::lookup(name) {
                    return Response::Error {
                        message: e.to_string(),
                    };
                }
            }
            // Classify the observed characteristics against everyone's
            // prior experience (§4.2). A match whose space shape differs
            // from this session's cannot seed the search — skip it.
            let prior = {
                let _span = trace::child(stage::CLASSIFY, &label);
                shared
                    .select_prior(&characteristics)
                    .filter(|run| run.fits(&space))
            };
            if prior.is_some() {
                crate::obs::warm_start_hits_total().inc();
            } else {
                crate::obs::warm_start_misses_total().inc();
            }
            let record = SessionRecord {
                token: (conn.version >= 2).then(|| issue_self_owned_token(shared)),
                engine,
                space,
                budget: max_iterations.unwrap_or(shared.config.tuning.max_iterations),
                trace: Vec::new(),
                label,
                characteristics,
                prior,
                next_seq: 0,
            };
            let sess = match build_session(record, &shared.config) {
                Ok(sess) => sess,
                Err(message) => return Response::Error { message },
            };
            crate::obs::sessions_started_total().inc();
            event(Level::Info, "net.session_start")
                .str("label", &sess.record.label)
                .str("engine", sess.engine.name())
                .bool("warm_start", sess.record.prior.is_some())
                .u64(
                    "training_iterations",
                    sess.engine.training_iterations() as u64,
                )
                .emit();
            ship_snapshot(shared, &sess, &mut conn.outbox);
            let response = Response::SessionStarted {
                space: sess.record.space.clone(),
                trained_from: sess.record.prior.as_ref().map(|r| r.label.clone()),
                training_iterations: sess.engine.training_iterations(),
                session_token: sess.record.token.clone(),
            };
            *active = Some(sess);
            response
        }
        Request::Resume { token } => {
            if conn.version < 2 {
                return Response::Error {
                    message: "Resume needs protocol version 2".into(),
                };
            }
            if active.is_some() {
                return Response::Error {
                    message: "a session is already active on this connection".into(),
                };
            }
            // A reconnecting client can race the server noticing that
            // its old connection died: the session is still attached to
            // the dying handler, not yet parked. For tokens we issued,
            // poll briefly before giving up.
            let grace = Instant::now() + Duration::from_millis(500);
            loop {
                if let Some(sess) = shared.registry.unpark(&token) {
                    return resume(active, sess, "net.session_resumed");
                }
                // A finished session's token answers from the summary
                // cache: the client lost its own SessionEnd response.
                if let Some(Response::SessionSummary { iterations, .. }) =
                    shared.registry.cached_summary(&token)
                {
                    crate::obs::resumes_total().inc();
                    conn.completed_token = Some(token);
                    return Response::Resumed {
                        iteration: iterations,
                        next_seq: 0,
                        done: true,
                    };
                }
                // A replica shipped here by a peer owner: the owner is
                // gone (the client failed over to us), so the record
                // becomes a live adopted session. Served-locally-first:
                // anything this daemon holds in any form answers here,
                // and only a complete miss can redirect, so a session
                // can never be served from two places.
                if let Some(record) = shared.adopt_replica(&token) {
                    return match build_session(record, &shared.config) {
                        Ok(sess) => {
                            crate::obs::shard_adoptions_total().inc();
                            resume(active, sess, "net.session_adopted")
                        }
                        Err(message) => {
                            revive_failed(&token, message.clone());
                            Response::Error { message }
                        }
                    };
                }
                if !shared.registry.recognizes(&token)
                    || Instant::now() >= grace
                    || shared.shutdown.load(Ordering::SeqCst)
                {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            // Complete miss. On a cluster, point the client at the
            // token's ring owner; for our own tokens (we are the owner)
            // the session is simply gone.
            if let Some(cluster) = &shared.cluster {
                let owner = cluster.owner_of_token(&token);
                if owner != cluster.self_addr() {
                    crate::obs::shard_redirects_total().inc();
                    return Response::NotMine {
                        owner: owner.to_string(),
                    };
                }
            }
            Response::Error {
                message: "unknown or expired session token".into(),
            }
        }
        Request::Fetch => match active {
            None => no_session(),
            // Nothing to replicate: the proposal is recomputed from the
            // record by the idempotent ask.
            Some(sess) => match sess.next_config() {
                Some(cfg) => Response::Config {
                    values: cfg.values().to_vec(),
                    iteration: sess.iterations(),
                },
                None => Response::Done,
            },
        },
        Request::Report { performance, seq } => match active {
            None => no_session(),
            Some(sess) => {
                match seq {
                    // A replayed report: already observed, answer the
                    // acknowledgment it lost.
                    Some(s) if s < sess.record.next_seq => return Response::Reported,
                    Some(s) if s > sess.record.next_seq => {
                        return Response::Error {
                            message: format!(
                                "report sequence gap: got {s}, expected {}",
                                sess.record.next_seq
                            ),
                        }
                    }
                    _ => {}
                }
                // Refused before the kernel sees it (see `SessionStart`);
                // the proposal stays outstanding for a usable report.
                if !performance.is_finite() {
                    return Response::Error {
                        message: format!("performance must be a finite number, got {performance}"),
                    };
                }
                match sess.observe(performance) {
                    Ok(()) => {
                        if seq.is_some() {
                            sess.record.next_seq += 1;
                        }
                        // Replicate before acknowledging: the reactor
                        // holds the ack until the replicas have it, so a
                        // failover cannot lose this observation.
                        ship_step(shared, sess, &mut conn.outbox);
                        Response::Reported
                    }
                    Err(message) => Response::Error { message },
                }
            }
        },
        Request::SessionEnd => match active.take() {
            None => match conn.completed_token.take() {
                // Resume of a finished session: replay the cached
                // summary instead of complaining.
                Some(token) => match shared.registry.cached_summary(&token) {
                    Some(summary) => summary,
                    None => no_session(),
                },
                None => no_session(),
            },
            Some(sess) => {
                crate::obs::sessions_completed_total().inc();
                if sess.engine.converged() {
                    harmony::obs::engine_converged_iterations().observe(sess.iterations() as f64);
                }
                let token = sess.record.token.clone();
                let summary = record_session(sess, shared, &mut conn.outbox);
                if let Some(token) = token {
                    shared
                        .registry
                        .cache_summary(token.clone(), summary.clone());
                    shared.retire(&token, &mut conn.outbox);
                }
                summary
            }
        },
        Request::Sensitivity => match active {
            None => no_session(),
            Some(sess) => {
                // Free estimate from experience already paid for: the
                // matched prior run plus this session's live trace.
                let mut records: Vec<TuningRecord> = sess
                    .record
                    .prior
                    .as_ref()
                    .map(|run| run.records.clone())
                    .unwrap_or_default();
                records.extend(
                    sess.record
                        .trace
                        .iter()
                        .map(|t| TuningRecord::new(&t.config, t.performance)),
                );
                if records.is_empty() {
                    return Response::Error {
                        message: "no experience yet: no prior match and nothing measured".into(),
                    };
                }
                let report = SensitivityReport::from_history(&sess.record.space, &records);
                Response::Sensitivity {
                    entries: report
                        .entries()
                        .iter()
                        .map(|e| SensitivityEntry {
                            index: e.index,
                            name: e.name.clone(),
                            sensitivity: e.sensitivity,
                            best_value: e.best_value,
                        })
                        .collect(),
                }
            }
        },
        Request::DbQuery => Response::Runs {
            runs: shared.run_summaries(),
        },
        Request::Stats => Response::Stats {
            text: harmony_obs::metrics::global().encode(),
        },
        // `serve_request` unwraps the one envelope a request may carry;
        // serving a nested one would recurse once per level.
        Request::Traced { .. } => Response::Error {
            message: "Traced may not wrap Traced".into(),
        },
        Request::TraceDump => Response::TraceDump {
            traces: trace::dump().into_iter().map(Into::into).collect(),
        },
        Request::PeerHello { node } => match &shared.cluster {
            None => Response::Error {
                message: "clustering is off: peer links are refused".into(),
            },
            Some(cluster) if !cluster.is_member(&node) => Response::Error {
                message: format!("unknown ring member {node}"),
            },
            Some(_) => {
                conn.peer = true;
                crate::obs::peer_connections_total().inc();
                event(Level::Info, "net.peer_connected")
                    .str("node", node)
                    .emit();
                Response::PeerOk
            }
        },
        Request::PeerShipRun { origin, seq, run } => match peer_cluster(conn, shared) {
            Err(message) => Response::Error { message },
            // The binary encoding carries what `SessionStart` and
            // `Report` refuse at the owner; hold the same line here.
            Ok(_) if !is_journalable(&run) => Response::Error {
                message: "shipped run holds a non-finite number".into(),
            },
            Ok(cluster) => {
                // A retried ship re-delivers an applied `(origin, seq)`
                // and is dropped. Local apply only — never re-shipped,
                // so the replication fan-out is one hop and cycle-free.
                if cluster.apply_shipped(&origin, seq) {
                    shared.record_run(run);
                }
                Response::PeerOk
            }
        },
        Request::PeerShipSession { origin: _, session } => match peer_cluster(conn, shared) {
            Err(message) => Response::Error { message },
            Ok(_) => match serde_json::from_str::<SessionRecord>(&session)
                .map_err(|e| e.to_string())
                .and_then(SessionRecord::tokened)
            {
                Ok((token, record)) => {
                    shared.store_replica(token, record);
                    Response::PeerOk
                }
                Err(e) => {
                    revive_failed("", e.clone());
                    Response::Error {
                        message: format!("bad shipped session: {e}"),
                    }
                }
            },
        },
        Request::PeerDropSession { origin: _, token } => match peer_cluster(conn, shared) {
            Err(message) => Response::Error { message },
            Ok(_) => {
                shared.drop_replica(&token);
                Response::PeerOk
            }
        },
        Request::PeerShipStep {
            token,
            iteration,
            next_seq,
            values,
            performance,
        } => {
            let entry = TraceEntry {
                iteration,
                config: Configuration::new(values),
                performance,
            };
            match peer_cluster(conn, shared)
                .and_then(|_| shared.apply_step(&token, entry, next_seq))
            {
                Ok(()) => Response::PeerOk,
                Err(message) => Response::Error { message },
            }
        }
    }
}

/// Attach a parked, revived or adopted session to this connection.
fn resume(
    active: &mut Option<ActiveSession>,
    mut sess: ActiveSession,
    what: &'static str,
) -> Response {
    crate::obs::resumes_total().inc();
    event(Level::Info, what)
        .str("label", &sess.record.label)
        .u64("iterations", sess.iterations() as u64)
        .emit();
    // The client may have been between `Fetch` and `Report` when it lost
    // its connection, and a rebuilt session carries no proposal: re-arm
    // it (the ask is idempotent) so the retried `Report` is accepted.
    sess.next_config();
    let response = Response::Resumed {
        iteration: sess.iterations(),
        next_seq: sess.record.next_seq,
        done: sess.engine.is_done(),
    };
    *active = Some(sess);
    response
}

/// The cluster handle for an authorized peer connection, or the reason
/// the request is refused: `Peer*` traffic is honored only after a
/// successful `PeerHello` on a clustered daemon.
fn peer_cluster<'a>(conn: &ConnState, shared: &'a Shared) -> Result<&'a Arc<ClusterState>, String> {
    match &shared.cluster {
        None => Err("clustering is off: peer requests are refused".into()),
        Some(_) if !conn.peer => Err("unauthorized peer request: send PeerHello first".into()),
        Some(cluster) => Ok(cluster),
    }
}

/// Issue a session token; with clustering on, draw candidates until the
/// ring hashes one onto this daemon, so a session's creator is always
/// its ring owner and `SessionStart` never needs a redirect.
fn issue_self_owned_token(shared: &Shared) -> String {
    let Some(cluster) = &shared.cluster else {
        return shared.registry.issue_token();
    };
    for _ in 0..TOKEN_DRAWS {
        let token = shared.registry.issue_token();
        if cluster.owns_token(&token) {
            return token;
        }
    }
    // Astronomically unlikely (see [`TOKEN_DRAWS`]); serve the session
    // anyway — a foreign-owned token only costs a redirect on resume.
    shared.registry.issue_token()
}

/// Whether every number in `run` has a JSON spelling. One that does not
/// would make the journal and the snapshot it reaches unloadable.
fn is_journalable(run: &RunHistory) -> bool {
    let finite = |x: &f64| x.is_finite();
    run.characteristics.iter().all(finite) && run.records.iter().all(|r| finite(&r.performance))
}

fn no_session() -> Response {
    Response::Error {
        message: "no active session: send SessionStart first".into(),
    }
}

fn resolve_space(spec: SpaceSpec) -> Result<ParameterSpace, String> {
    match spec {
        SpaceSpec::Rsl(text) => parse_rsl(&text).map_err(|e| format!("bad RSL: {e}")),
        SpaceSpec::Explicit(space) => {
            if space.is_empty() {
                Err("empty parameter space".into())
            } else {
                Ok(space)
            }
        }
    }
}

/// Fold a finished (or abandoned) session into the shared database,
/// queue its run for the cluster, and answer with its summary.
pub(crate) fn record_session(
    sess: ActiveSession,
    shared: &Shared,
    outbox: &mut Outbox,
) -> Response {
    let ActiveSession { record, engine, .. } = sess;
    let (best, performance) = engine
        .best()
        .unwrap_or_else(|| (record.space.default_configuration(), f64::NEG_INFINITY));
    let converged = engine.converged();
    let summary = Response::SessionSummary {
        values: best.values().to_vec(),
        performance,
        iterations: record.trace.len(),
        converged,
    };
    event(Level::Info, "net.session_record")
        .str("label", &record.label)
        .u64("iterations", record.trace.len() as u64)
        .f64("best", performance)
        .bool("converged", converged)
        .emit();
    if !record.trace.is_empty() {
        let _span = trace::child(stage::WAL_APPEND, &record.label);
        let mut run = RunHistory::new(record.label, record.characteristics);
        for t in &record.trace {
            run.push(&t.config, t.performance);
        }
        shared.record_run_and_replicate(Arc::new(run), outbox);
    }
    shared.completed.fetch_add(1, Ordering::SeqCst);
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::codec::write_frame;
    use harmony_space::Configuration;
    use proptest::prelude::*;
    use std::time::Instant;

    fn paraboloid(cfg: &Configuration) -> f64 {
        let x = cfg.get(0) as f64;
        let y = cfg.get(1) as f64;
        1000.0 - (x - 40.0).powi(2) - (y - 70.0).powi(2)
    }

    const RSL: &str = "{ harmonyBundle x { int {0 100 1} }}\n{ harmonyBundle y { int {0 100 1} }}";

    fn daemon() -> DaemonHandle {
        TuningDaemon::start(DaemonConfig::default()).expect("daemon starts")
    }

    #[test]
    fn one_session_end_to_end() {
        let handle = daemon();
        let mut client = Client::connect(handle.addr()).unwrap();
        let started = client
            .start_session(SpaceSpec::Rsl(RSL.into()), "w1", vec![1.0, 0.0], Some(80))
            .unwrap();
        assert_eq!(started.space.len(), 2);
        assert_eq!(started.space.param(0).name(), "x");
        assert!(started.trained_from.is_none(), "empty db cannot warm-start");
        while let Some(p) = client.fetch().unwrap() {
            client.report(paraboloid(&p.values)).unwrap();
        }
        let summary = client.end_session().unwrap();
        assert!(summary.performance > 950.0, "found {}", summary.performance);
        assert!(summary.iterations > 0 && summary.iterations <= 80);
        drop(client);
        assert_eq!(handle.completed_sessions(), 1);
        assert_eq!(handle.db_runs(), 1);
        handle.shutdown();
    }

    #[test]
    fn fetch_is_idempotent_over_the_wire() {
        let handle = daemon();
        let mut client = Client::connect(handle.addr()).unwrap();
        client
            .start_session(SpaceSpec::Rsl(RSL.into()), "w", vec![0.5], Some(20))
            .unwrap();
        let a = client.fetch().unwrap().unwrap();
        let b = client.fetch().unwrap().unwrap();
        assert_eq!(a.values, b.values, "retried fetch must repeat the proposal");
        client.report(1.0).unwrap();
        let c = client.fetch().unwrap().unwrap();
        assert_ne!(a.values, c.values);
        handle.shutdown();
    }

    #[test]
    fn protocol_misuse_gets_in_protocol_errors() {
        let handle = daemon();
        let mut client = Client::connect(handle.addr()).unwrap();
        // Report with no session.
        let err = client.report(1.0).unwrap_err();
        assert!(matches!(err, NetError::Remote(_)), "{err}");
        // Fetch with no session.
        let err = client.fetch().unwrap_err();
        assert!(matches!(err, NetError::Remote(_)), "{err}");
        // The connection stays usable afterwards.
        client
            .start_session(SpaceSpec::Rsl(RSL.into()), "w", vec![], Some(10))
            .unwrap();
        // Report before any fetch: kernel has nothing outstanding.
        let err = client.report(1.0).unwrap_err();
        assert!(matches!(err, NetError::Remote(_)), "{err}");
        // Bad RSL in a second session attempt while one is active.
        let err = client
            .start_session(SpaceSpec::Rsl(RSL.into()), "w2", vec![], None)
            .unwrap_err();
        assert!(matches!(err, NetError::Remote(_)), "{err}");
        handle.shutdown();
    }

    #[test]
    fn sensitivity_and_db_query_answer_mid_session() {
        let handle = daemon();
        let mut client = Client::connect(handle.addr()).unwrap();
        client
            .start_session(SpaceSpec::Rsl(RSL.into()), "w", vec![0.2], Some(30))
            .unwrap();
        // Before anything is measured there is no experience to rank.
        let err = client.sensitivity().unwrap_err();
        assert!(matches!(err, NetError::Remote(_)), "{err}");
        for _ in 0..10 {
            let p = client.fetch().unwrap().unwrap();
            client.report(paraboloid(&p.values)).unwrap();
        }
        let entries = client.sensitivity().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "x");
        assert!(entries.iter().any(|e| e.sensitivity > 0.0));
        let runs = client.db_runs().unwrap();
        assert!(runs.is_empty(), "session not ended yet: db still empty");
        handle.shutdown();
    }

    #[test]
    fn stats_exposition_names_the_daemon_metrics() {
        let handle = daemon();
        let mut client = Client::connect(handle.addr()).unwrap();
        let text = client.stats().unwrap();
        // Pre-registration makes every table's series visible before
        // any sessions run, including every per-type latency series.
        for series in crate::obs::DAEMON_SERIES.concat() {
            let name = series.name;
            for header in [
                format!("# HELP {name} {}\n", series.help),
                format!("# TYPE {name} {}\n", series.kind),
            ] {
                assert!(text.contains(&header), "missing {header:?} in:\n{text}");
            }
            if let (Some(key), Some(value)) = (series.label, series.value) {
                let sample = match series.kind {
                    "histogram" => format!("{name}_count"),
                    _ => name.to_string(),
                };
                let sample = format!("\n{sample}{{{key}=\"{value}\"}} ");
                assert!(text.contains(&sample), "missing {sample:?} in:\n{text}");
            }
        }
        for kind in Request::kinds() {
            assert!(
                text.contains(&format!("type=\"{kind}\"")),
                "missing per-type series for {kind}"
            );
        }
        handle.shutdown();
    }

    #[test]
    fn version_mismatch_is_refused() {
        let handle = daemon();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_frame(
            &mut stream,
            &Request::Hello {
                version: None,
                min_version: Some(PROTOCOL_VERSION + 1),
                max_version: Some(PROTOCOL_VERSION + 1),
                client: "from the future".into(),
            },
        )
        .unwrap();
        let response: Response = crate::codec::read_frame(&mut stream).unwrap();
        assert!(matches!(response, Response::Error { .. }), "{response:?}");
    }

    #[test]
    fn v1_client_negotiates_and_tunes_without_tokens() {
        let handle = daemon();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_frame(
            &mut stream,
            &Request::Hello {
                version: Some(1),
                min_version: None,
                max_version: None,
                client: "v1 relic".into(),
            },
        )
        .unwrap();
        match crate::codec::read_frame(&mut stream).unwrap() {
            Response::Hello { version, .. } => assert_eq!(version, 1, "server must meet v1 at v1"),
            other => panic!("expected Hello, got {other:?}"),
        }
        write_frame(
            &mut stream,
            &Request::SessionStart {
                space: SpaceSpec::Rsl(RSL.into()),
                label: "v1".into(),
                characteristics: vec![0.5],
                max_iterations: Some(5),
                engine: None,
            },
        )
        .unwrap();
        match crate::codec::read_frame(&mut stream).unwrap() {
            Response::SessionStarted { session_token, .. } => {
                assert!(session_token.is_none(), "v1 connections get no token")
            }
            other => panic!("expected SessionStarted, got {other:?}"),
        }
        // Seq-less reports (the v1 wire shape) still observe.
        write_frame(&mut stream, &Request::Fetch).unwrap();
        assert!(matches!(
            crate::codec::read_frame(&mut stream).unwrap(),
            Response::Config { .. }
        ));
        write_frame(
            &mut stream,
            &Request::Report {
                performance: 1.0,
                seq: None,
            },
        )
        .unwrap();
        assert!(matches!(
            crate::codec::read_frame(&mut stream).unwrap(),
            Response::Reported
        ));
        handle.shutdown();
    }

    #[test]
    fn resume_continues_a_parked_session_and_dedups_replayed_reports() {
        let handle = daemon();
        let mut client = Client::connect(handle.addr()).unwrap();
        assert_eq!(client.protocol_version(), PROTOCOL_VERSION);
        client
            .start_session(SpaceSpec::Rsl(RSL.into()), "parked", vec![0.4], Some(30))
            .unwrap();
        let token = client
            .session_token()
            .expect("v2 issues a token")
            .to_string();
        let p = client.fetch().unwrap().unwrap();
        client.report(paraboloid(&p.values)).unwrap();
        drop(client);

        // Reconnect raw and resume: the session continues where it was.
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_frame(
            &mut stream,
            &Request::Hello {
                version: None,
                min_version: Some(MIN_SUPPORTED_VERSION),
                // Cap at v2: this raw socket keeps speaking JSON.
                max_version: Some(2),
                client: "test".into(),
            },
        )
        .unwrap();
        crate::codec::read_frame::<_, Response>(&mut stream).unwrap();
        // Parking happens asynchronously when the handler notices the
        // disconnect; retry until the token resolves.
        let mut resumed = None;
        for _ in 0..100 {
            write_frame(
                &mut stream,
                &Request::Resume {
                    token: token.clone(),
                },
            )
            .unwrap();
            match crate::codec::read_frame(&mut stream).unwrap() {
                Response::Resumed {
                    iteration,
                    next_seq,
                    done,
                } => {
                    resumed = Some((iteration, next_seq, done));
                    break;
                }
                Response::Error { .. } => std::thread::sleep(Duration::from_millis(10)),
                other => panic!("unexpected {other:?}"),
            }
        }
        let (iteration, next_seq, done) = resumed.expect("session resumes");
        assert_eq!(iteration, 1, "one live iteration happened before the drop");
        assert_eq!(next_seq, 1, "one sequenced report was observed");
        assert!(!done);
        // A replayed report (seq 0 again) is acknowledged, not observed.
        write_frame(
            &mut stream,
            &Request::Report {
                performance: 123.0,
                seq: Some(0),
            },
        )
        .unwrap();
        assert!(matches!(
            crate::codec::read_frame(&mut stream).unwrap(),
            Response::Reported
        ));
        // ...and a gapped sequence number is refused.
        write_frame(
            &mut stream,
            &Request::Report {
                performance: 123.0,
                seq: Some(7),
            },
        )
        .unwrap();
        assert!(matches!(
            crate::codec::read_frame(&mut stream).unwrap(),
            Response::Error { .. }
        ));
        handle.shutdown();
    }

    #[test]
    fn unknown_token_is_refused() {
        let handle = daemon();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_frame(
            &mut stream,
            &Request::Hello {
                version: None,
                min_version: Some(2),
                // Cap at v2: this raw socket keeps speaking JSON.
                max_version: Some(2),
                client: "test".into(),
            },
        )
        .unwrap();
        crate::codec::read_frame::<_, Response>(&mut stream).unwrap();
        write_frame(
            &mut stream,
            &Request::Resume {
                token: "hs-nope-1".into(),
            },
        )
        .unwrap();
        assert!(matches!(
            crate::codec::read_frame(&mut stream).unwrap(),
            Response::Error { .. }
        ));
        handle.shutdown();
    }

    #[test]
    fn parked_sessions_expire_at_the_ttl_and_keep_their_experience() {
        let handle = TuningDaemon::start(DaemonConfig {
            session_ttl: Duration::from_millis(50),
            ..DaemonConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        client
            .start_session(SpaceSpec::Rsl(RSL.into()), "ttl", vec![0.2], Some(40))
            .unwrap();
        let token = client.session_token().unwrap().to_string();
        for _ in 0..4 {
            let p = client.fetch().unwrap().unwrap();
            client.report(paraboloid(&p.values)).unwrap();
        }
        drop(client);
        // The reaper records the measured work once the TTL lapses.
        for _ in 0..100 {
            if handle.db_runs() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(handle.db_runs(), 1, "expired session experience is kept");
        // The token is gone afterwards.
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_frame(
            &mut stream,
            &Request::Hello {
                version: None,
                min_version: Some(2),
                // Cap at v2: this raw socket keeps speaking JSON.
                max_version: Some(2),
                client: "test".into(),
            },
        )
        .unwrap();
        crate::codec::read_frame::<_, Response>(&mut stream).unwrap();
        write_frame(&mut stream, &Request::Resume { token }).unwrap();
        assert!(matches!(
            crate::codec::read_frame(&mut stream).unwrap(),
            Response::Error { .. }
        ));
        handle.shutdown();
    }

    #[test]
    fn draining_daemon_refuses_session_work_but_serves_admin() {
        let handle = daemon();
        let mut client = Client::builder(handle.addr())
            .retry(crate::client::RetryPolicy::none())
            .connect()
            .unwrap();
        client
            .start_session(SpaceSpec::Rsl(RSL.into()), "drain", vec![0.1], Some(20))
            .unwrap();
        handle.drain();
        assert!(handle.is_draining());
        // In-flight session work is refused retryably...
        let err = client.fetch().unwrap_err();
        assert!(matches!(err, NetError::Draining), "{err}");
        assert!(err.is_retryable());
        // ...while a fresh connection is turned away at accept with the
        // same answer.
        let err = Client::builder(handle.addr())
            .retry(crate::client::RetryPolicy::none())
            .connect()
            .unwrap_err();
        assert!(matches!(err, NetError::Draining), "{err}");
        handle.shutdown();
    }

    #[test]
    fn connection_cap_refuses_politely() {
        let handle = TuningDaemon::start(DaemonConfig {
            max_connections: 0,
            ..DaemonConfig::default()
        })
        .unwrap();
        let err = Client::connect(handle.addr()).unwrap_err();
        assert!(
            matches!(err, NetError::Remote(ref m) if m.contains("busy")),
            "{err}"
        );
    }

    #[test]
    fn dropped_connection_still_records_measured_experience() {
        // A short keepalive TTL so the parked session expires quickly;
        // the reaper then records its measured work as an abandoned run.
        let handle = TuningDaemon::start(DaemonConfig {
            session_ttl: Duration::from_millis(50),
            ..DaemonConfig::default()
        })
        .unwrap();
        {
            let mut client = Client::connect(handle.addr()).unwrap();
            client
                .start_session(SpaceSpec::Rsl(RSL.into()), "dropped", vec![0.1], Some(50))
                .unwrap();
            for _ in 0..5 {
                let p = client.fetch().unwrap().unwrap();
                client.report(paraboloid(&p.values)).unwrap();
            }
            // Client vanishes without SessionEnd.
        }
        // The handler notices the disconnect asynchronously.
        for _ in 0..100 {
            if handle.db_runs() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(handle.db_runs(), 1, "abandoned session experience is kept");
    }

    /// Satellite: a slow disk must never delay a concurrent classify.
    /// The sink sleeps 400 ms per append; after queueing several
    /// appends, a fresh `SessionStart` (which classifies against the
    /// snapshot) still answers immediately.
    #[test]
    fn slow_persistence_never_delays_classification() {
        struct SleepySink;
        impl DbSink for SleepySink {
            fn append(&mut self, _run: &RunHistory) -> Result<(), DbError> {
                std::thread::sleep(Duration::from_millis(400));
                Ok(())
            }
            fn compact(&mut self, _db: &ExperienceDb) -> Result<(), DbError> {
                Ok(())
            }
        }
        let handle =
            TuningDaemon::start_with_sink(DaemonConfig::default(), Box::new(SleepySink)).unwrap();
        // Record three runs: each costs the flusher 400 ms of "disk".
        for i in 0..3 {
            let mut client = Client::connect(handle.addr()).unwrap();
            client
                .start_session(
                    SpaceSpec::Rsl(RSL.into()),
                    format!("seed{i}"),
                    vec![i as f64, 0.0],
                    Some(8),
                )
                .unwrap();
            while let Some(p) = client.fetch().unwrap() {
                client.report(paraboloid(&p.values)).unwrap();
            }
            client.end_session().unwrap();
        }
        // The flusher is now busy sleeping; classification reads the
        // snapshot and must not queue behind it.
        let mut client = Client::connect(handle.addr()).unwrap();
        let t = Instant::now();
        let started = client
            .start_session(SpaceSpec::Rsl(RSL.into()), "probe", vec![1.0, 0.0], Some(8))
            .unwrap();
        let elapsed = t.elapsed();
        assert!(started.trained_from.is_some(), "snapshot visible to reads");
        assert!(
            elapsed < Duration::from_millis(300),
            "classify took {elapsed:?} while the sink slept"
        );
        handle.shutdown();
    }

    /// The snapshot swap counter moves once per recorded run.
    #[test]
    fn snapshot_swaps_are_counted() {
        let before = crate::obs::db_snapshot_swaps_total().get();
        let handle = daemon();
        let mut client = Client::connect(handle.addr()).unwrap();
        client
            .start_session(SpaceSpec::Rsl(RSL.into()), "swap", vec![0.9, 0.9], Some(6))
            .unwrap();
        while let Some(p) = client.fetch().unwrap() {
            client.report(paraboloid(&p.values)).unwrap();
        }
        client.end_session().unwrap();
        handle.shutdown();
        assert!(
            crate::obs::db_snapshot_swaps_total().get() > before,
            "recording a run must swap the snapshot"
        );
    }

    fn run_at(label: &str, x: f64) -> Arc<RunHistory> {
        let mut run = RunHistory::new(label, vec![x, 0.0]);
        run.push(&Configuration::new(vec![1, 2]), x);
        Arc::new(run)
    }

    /// A reader's snapshot is its own: appends behind its back change
    /// neither its length nor its answers, and cost no copy of the runs
    /// it holds.
    #[test]
    fn snapshots_are_stable_for_readers_and_share_their_runs() {
        let cell = DbCell::new(ExperienceDb::new());
        cell.add_run(run_at("first", 0.0));
        let held = cell.load();
        for i in 1..200 {
            cell.add_run(run_at(&format!("r{i}"), i as f64));
        }
        let now = cell.load();
        assert_eq!((held.db.len(), held.index.len()), (1, 1));
        assert_eq!((now.db.len(), now.index.len()), (200, 200));
        let (_, seen) = held.index.classify(&held.db, &[150.0, 0.0]).unwrap();
        assert_eq!(seen.label, "first", "the held snapshot has one run");
        let (at, seen) = now.index.classify(&now.db, &[150.2, 0.0]).unwrap();
        assert_eq!((at, seen.label.as_str()), (150, "r150"));
        assert!(Arc::ptr_eq(&held.db.runs()[0], &now.db.runs()[0]));
        let before = cell.load();
        cell.add_run(run_at("last", 500.0));
        let after = cell.load();
        for (a, b) in before.db.runs().iter().zip(after.db.runs()) {
            assert!(Arc::ptr_eq(a, b), "consecutive snapshots share runs");
        }
        // The extended index still answers like a scan of the database.
        for x in [-1.0, 63.4, 64.5, 199.0, 499.0] {
            assert_eq!(
                after.index.classify(&after.db, &[x, 0.0]).map(|(i, _)| i),
                after.db.classify(&[x, 0.0]).map(|(i, _)| i),
            );
        }
    }

    /// Run eight-evaluation sessions one after another, labelled `s<i>`
    /// for each `i` in `which`, each ended before the next starts.
    fn run_sessions(handle: &DaemonHandle, which: std::ops::Range<usize>) {
        for i in which {
            let mut client = Client::connect(handle.addr()).unwrap();
            client
                .start_session(
                    SpaceSpec::Rsl(RSL.into()),
                    format!("s{i}"),
                    vec![i as f64, 0.0],
                    Some(8),
                )
                .unwrap();
            while let Some(p) = client.fetch().unwrap() {
                client.report(paraboloid(&p.values)).unwrap();
            }
            client.end_session().unwrap();
        }
    }

    /// The run `SessionEnd` builds is allocated once: the serving
    /// snapshot and the sink see the same `RunHistory`.
    #[test]
    fn the_recorded_run_is_shared_between_snapshot_and_sink() {
        #[derive(Default)]
        struct Seen {
            appended: Vec<usize>,
            compacted: Vec<usize>,
        }
        struct AddressSink(Arc<Mutex<Seen>>);
        impl DbSink for AddressSink {
            fn append(&mut self, run: &RunHistory) -> Result<(), DbError> {
                self.0
                    .lock()
                    .unwrap()
                    .appended
                    .push(run as *const _ as usize);
                Ok(())
            }
            fn compact(&mut self, db: &ExperienceDb) -> Result<(), DbError> {
                self.0.lock().unwrap().compacted =
                    db.runs().iter().map(|r| Arc::as_ptr(r) as usize).collect();
                Ok(())
            }
        }
        let seen = Arc::new(Mutex::new(Seen::default()));
        let handle = TuningDaemon::start_with_sink(
            DaemonConfig::default(),
            Box::new(AddressSink(Arc::clone(&seen))),
        )
        .unwrap();
        run_sessions(&handle, 0..2);
        let snapshot = handle.shared.db.load();
        let served: Vec<usize> = snapshot
            .db
            .runs()
            .iter()
            .map(|r| Arc::as_ptr(r) as usize)
            .collect();
        handle.shutdown();
        let seen = seen.lock().unwrap();
        assert_eq!(served.len(), 2);
        assert_eq!(seen.appended, served, "appended the snapshot's own runs");
        assert_eq!(seen.compacted, served, "and compacted them");
    }

    /// A disk that stalls on its first append until the test lets go:
    /// whatever is recorded meanwhile is in memory but not journaled.
    struct StalledDisk {
        stalled: mpsc::Sender<()>,
        gate: Option<mpsc::Receiver<()>>,
    }

    impl StalledDisk {
        /// The disk, a receiver that hears when the first append has
        /// begun, and a sender whose drop lets it finish.
        fn new() -> (StalledDisk, mpsc::Receiver<()>, mpsc::Sender<()>) {
            let (stalled, hears_stall) = mpsc::channel();
            let (release, gate) = mpsc::channel();
            let gate = Some(gate);
            (StalledDisk { stalled, gate }, hears_stall, release)
        }

        fn wait(&mut self) {
            if let Some(gate) = self.gate.take() {
                let _ = self.stalled.send(());
                let _ = gate.recv();
            }
        }
    }

    /// `s0` ends and its append stalls; `s1` and `s2` end behind it.
    /// When the disk is released, the flusher's first batch is `s0`
    /// alone while memory already holds all three.
    fn three_sessions_over_a_stalled_disk(
        handle: &DaemonHandle,
        stalled: mpsc::Receiver<()>,
        release: mpsc::Sender<()>,
    ) {
        let before = handle.db_runs();
        run_sessions(handle, 0..1);
        stalled.recv().expect("the first append begins");
        run_sessions(handle, 1..3);
        assert_eq!(handle.db_runs(), before + 3, "memory is ahead of the disk");
        drop(release);
    }

    /// Compaction writes what the journal has been given — not what
    /// `SessionEnd`s have put in memory since. With a stalled disk the
    /// first compaction runs while later runs are still queued;
    /// snapshotting them there and journaling them afterwards would
    /// store them twice.
    #[test]
    fn compaction_snapshots_exactly_the_journaled_runs() {
        #[derive(Default)]
        struct Log {
            appended: Vec<String>,
            /// (labels in the compacted db, labels appended by then).
            compactions: Vec<(Vec<String>, Vec<String>)>,
        }
        struct SlowSink(Arc<Mutex<Log>>, StalledDisk);
        impl DbSink for SlowSink {
            fn append(&mut self, run: &RunHistory) -> Result<(), DbError> {
                self.1.wait();
                self.0.lock().unwrap().appended.push(run.label.clone());
                Ok(())
            }
            fn compact(&mut self, db: &ExperienceDb) -> Result<(), DbError> {
                let mut log = self.0.lock().unwrap();
                let in_db = db.runs().iter().map(|r| r.label.clone()).collect();
                let so_far = log.appended.clone();
                log.compactions.push((in_db, so_far));
                Ok(())
            }
        }
        let log = Arc::new(Mutex::new(Log::default()));
        let config = DaemonConfig {
            compact_every: 1,
            ..DaemonConfig::default()
        };
        let (disk, stalled, release) = StalledDisk::new();
        let sink = SlowSink(Arc::clone(&log), disk);
        let handle = TuningDaemon::start_with_sink(config, Box::new(sink)).unwrap();
        three_sessions_over_a_stalled_disk(&handle, stalled, release);
        handle.shutdown();
        let log = log.lock().unwrap();
        assert_eq!(log.appended, ["s0", "s1", "s2"]);
        assert!(log.compactions.len() >= 2, "periodic plus final compaction");
        for (in_db, so_far) in &log.compactions {
            assert_eq!(in_db, so_far, "compacted runs the journal had not seen");
        }
        assert_eq!(log.compactions.last().unwrap().0, ["s0", "s1", "s2"]);
    }

    /// The same schedule against real files, with a crash simulated
    /// after every journal sync by copying `<db>` and `<db>.wal` and
    /// loading the copies: each image holds the pre-existing run and
    /// every journaled run exactly once.
    #[test]
    fn crash_images_of_snapshot_plus_journal_hold_no_run_twice() {
        struct SlowFileSink {
            inner: FileSink,
            disk: StalledDisk,
            db: PathBuf,
            images: Arc<Mutex<Vec<Vec<String>>>>,
        }
        impl DbSink for SlowFileSink {
            fn append(&mut self, run: &RunHistory) -> Result<(), DbError> {
                self.disk.wait();
                self.inner.append(run)
            }
            fn sync(&mut self) -> Result<(), DbError> {
                self.inner.sync()?;
                let crashed = self.db.with_extension("crashed");
                std::fs::copy(&self.db, &crashed)?;
                let wal = |db: &Path| effective_wal_path(&DaemonConfig::default(), db);
                std::fs::copy(wal(&self.db), wal(&crashed))?;
                let image = wal::load_with_wal(&crashed, wal(&crashed))?;
                let labels = image.runs().iter().map(|r| r.label.clone()).collect();
                self.images.lock().unwrap().push(labels);
                Ok(())
            }
            fn compact(&mut self, db: &ExperienceDb) -> Result<(), DbError> {
                self.inner.compact(db)
            }
        }
        let dir = std::env::temp_dir().join(format!("harmony-crash-image-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db_path = dir.join("exp.json");
        let mut before = ExperienceDb::new();
        before.add_run(run_at("old", 9.0));
        before.save(&db_path).unwrap();
        let config = DaemonConfig {
            db_path: Some(db_path.clone()),
            compact_every: 1,
            ..DaemonConfig::default()
        };
        let images = Arc::new(Mutex::new(Vec::new()));
        let (disk, stalled, release) = StalledDisk::new();
        let sink = SlowFileSink {
            inner: FileSink::open(db_path.clone(), effective_wal_path(&config, &db_path)).unwrap(),
            disk,
            db: db_path.clone(),
            images: Arc::clone(&images),
        };
        let handle = TuningDaemon::start_with_sink(config.clone(), Box::new(sink)).unwrap();
        three_sessions_over_a_stalled_disk(&handle, stalled, release);
        handle.shutdown();
        let images = images.lock().unwrap();
        assert_eq!(images.first().unwrap(), &["old", "s0"]);
        assert_eq!(images.last().unwrap(), &["old", "s0", "s1", "s2"]);
        for image in images.iter() {
            assert_eq!(image[0], "old", "the loaded database comes first");
            let mut unique = image.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(
                unique.len(),
                image.len(),
                "a run is stored twice: {image:?}"
            );
        }
        let reloaded = wal::load_with_wal(&db_path, effective_wal_path(&config, &db_path)).unwrap();
        let labels: Vec<&str> = reloaded.runs().iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["old", "s0", "s1", "s2"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Appends from several threads serialize on the writer lock: no
    /// run is lost and the carried-forward index covers them all.
    #[test]
    fn concurrent_appends_leave_every_run_in_the_snapshot() {
        let cell = Arc::new(DbCell::new(ExperienceDb::new()));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        cell.add_run(run_at(&format!("w{w}-{i}"), (w * 50 + i) as f64));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let snap = cell.load();
        assert_eq!((snap.db.len(), snap.index.len()), (200, 200));
        let mut labels: Vec<&str> = snap.db.runs().iter().map(|r| r.label.as_str()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 200);
    }

    /// With clustering off, every `Peer*` request gets an in-protocol
    /// error — the family simply does not exist for ordinary daemons.
    #[test]
    fn peer_requests_are_refused_without_clustering() {
        let handle = daemon();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_frame(
            &mut stream,
            &Request::Hello {
                version: None,
                min_version: Some(2),
                // Cap at v2: this raw socket keeps speaking JSON.
                max_version: Some(2),
                client: "test".into(),
            },
        )
        .unwrap();
        crate::codec::read_frame::<_, Response>(&mut stream).unwrap();
        for request in [
            Request::PeerHello {
                node: "127.0.0.1:1".into(),
            },
            Request::PeerShipSession {
                origin: "127.0.0.1:1".into(),
                session: "{}".into(),
            },
            Request::PeerDropSession {
                origin: "127.0.0.1:1".into(),
                token: "hs-1-1".into(),
            },
            Request::PeerShipStep {
                token: "hs-1-1".into(),
                iteration: 0,
                next_seq: 1,
                values: vec![1, 2],
                performance: 1.0,
            },
            Request::PeerShipRun {
                origin: "127.0.0.1:1".into(),
                seq: 1,
                run: run_at("shipped", 0.5),
            },
        ] {
            write_frame(&mut stream, &request).unwrap();
            match crate::codec::read_frame(&mut stream).unwrap() {
                Response::Error { message } => {
                    assert!(message.contains("clustering is off"), "{message}")
                }
                other => panic!("{} must be refused, got {other:?}", request.kind()),
            }
        }
        handle.shutdown();
    }

    /// On a clustered daemon, `Peer*` requests still need the
    /// `PeerHello` authorization — a client-facing connection (no
    /// handshake) cannot inject peer traffic, and an unknown node
    /// cannot authorize.
    #[test]
    fn peer_requests_need_an_authorized_peer_hello() {
        let config = DaemonConfig::builder()
            .cluster("127.0.0.1:9", vec!["127.0.0.2:9".into()], 1)
            .build()
            .unwrap();
        let handle = TuningDaemon::start(config).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_frame(
            &mut stream,
            &Request::Hello {
                version: None,
                min_version: Some(2),
                max_version: Some(2),
                client: "test".into(),
            },
        )
        .unwrap();
        crate::codec::read_frame::<_, Response>(&mut stream).unwrap();
        // No PeerHello yet: shipping is refused.
        write_frame(
            &mut stream,
            &Request::PeerShipRun {
                origin: "127.0.0.2:9".into(),
                seq: 1,
                run: run_at("shipped", 0.5),
            },
        )
        .unwrap();
        match crate::codec::read_frame(&mut stream).unwrap() {
            Response::Error { message } => assert!(message.contains("PeerHello"), "{message}"),
            other => panic!("unauthorized ship must be refused, got {other:?}"),
        }
        // A PeerHello naming a non-member is refused too.
        write_frame(
            &mut stream,
            &Request::PeerHello {
                node: "127.0.0.3:9".into(),
            },
        )
        .unwrap();
        match crate::codec::read_frame(&mut stream).unwrap() {
            Response::Error { message } => {
                assert!(message.contains("unknown ring member"), "{message}")
            }
            other => panic!("foreign PeerHello must be refused, got {other:?}"),
        }
        // A member's PeerHello authorizes the connection.
        write_frame(
            &mut stream,
            &Request::PeerHello {
                node: "127.0.0.2:9".into(),
            },
        )
        .unwrap();
        assert!(matches!(
            crate::codec::read_frame(&mut stream).unwrap(),
            Response::PeerOk
        ));
        handle.shutdown();
    }

    /// The reactor's schedule over one sample of every request kind: what
    /// waits on a clock or the whole database leaves the loop thread, and
    /// nothing else does — on a cluster too, where what the session
    /// requests replicate goes out on the reactor's peer links instead of
    /// holding a worker (`may_wait` does not even see the cluster).
    #[test]
    fn only_requests_that_can_wait_leave_the_loop_thread() {
        let traced = |request| Request::Traced {
            trace_id: 1,
            parent_span: 2,
            spans: Vec::new(),
            request: Box::new(request),
        };
        let report = || Request::Report {
            performance: 1.0,
            seq: Some(0),
        };
        // (request, waits)
        let cases = [
            (
                Request::Hello {
                    version: None,
                    min_version: Some(1),
                    max_version: Some(3),
                    client: "test".into(),
                },
                false,
            ),
            (
                Request::SessionStart {
                    space: SpaceSpec::Rsl(RSL.into()),
                    label: "w".into(),
                    characteristics: vec![0.5],
                    max_iterations: None,
                    engine: None,
                },
                false,
            ),
            (
                Request::Resume {
                    token: "hs-1-1".into(),
                },
                true,
            ),
            (Request::Fetch, false),
            (report(), false),
            (Request::SessionEnd, false),
            (Request::Sensitivity, true),
            (Request::DbQuery, true),
            (Request::Stats, true),
            (traced(Request::Fetch), false),
            (traced(report()), false),
            (traced(Request::Stats), true),
            (Request::TraceDump, true),
            (
                Request::PeerHello {
                    node: "127.0.0.2:9".into(),
                },
                false,
            ),
            (
                Request::PeerShipSession {
                    origin: "127.0.0.2:9".into(),
                    session: "{}".into(),
                },
                false,
            ),
            (
                Request::PeerDropSession {
                    origin: "127.0.0.2:9".into(),
                    token: "hs-1-1".into(),
                },
                false,
            ),
            (
                Request::PeerShipStep {
                    token: "hs-1-1".into(),
                    iteration: 0,
                    next_seq: 1,
                    values: vec![1, 2],
                    performance: 1.0,
                },
                false,
            ),
            (
                Request::PeerShipRun {
                    origin: "127.0.0.2:9".into(),
                    seq: 1,
                    run: run_at("shipped", 0.5),
                },
                false,
            ),
        ];
        for (request, waits) in &cases {
            assert_eq!(may_wait(request), *waits, "{}", request.kind());
        }
    }

    /// Two clustered daemons in this process, each the other's ring
    /// successor at replication 2: every tokened session one owns is
    /// replicated to the other. Only characteristics within 0.25 of a
    /// recorded run's warm-start from it, so a test chooses which of its
    /// sessions start cold.
    fn ring_pair(session_ttl: Duration) -> (DaemonHandle, DaemonHandle) {
        let reserved: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<String> = reserved
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect();
        drop(reserved);
        let member = |i: usize| {
            let mut config = DaemonConfig::builder()
                .listen(addrs[i].clone())
                .cluster(addrs[i].clone(), vec![addrs[1 - i].clone()], 2)
                .session_ttl(session_ttl)
                .build()
                .unwrap();
            config.analyzer = DataAnalyzer::new().with_max_match_distance(0.25);
            TuningDaemon::start(config).unwrap()
        };
        (member(0), member(1))
    }

    /// A raw protocol-v3 connection to a clustered daemon, authorized as
    /// ring member `node`: what a peer link is after its handshake.
    fn peer_link(handle: &DaemonHandle, node: &str) -> TcpStream {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_frame(
            &mut stream,
            &Request::Hello {
                version: None,
                min_version: Some(3),
                max_version: Some(3),
                client: "test peer".into(),
            },
        )
        .unwrap();
        crate::codec::read_frame::<_, Response>(&mut stream).unwrap();
        let hello = Request::PeerHello { node: node.into() };
        assert_eq!(peer_exchange(&mut stream, &hello), Response::PeerOk);
        stream
    }

    fn peer_exchange(stream: &mut TcpStream, request: &Request) -> Response {
        let mut buf = Vec::new();
        crate::codec::write_frame_buf_as(stream, WireFormat::Binary, request, &mut buf).unwrap();
        crate::codec::read_frame_buf_as(stream, WireFormat::Binary, &mut buf).unwrap()
    }

    fn replica_text(holder: &DaemonHandle, token: &str) -> Option<String> {
        let replicas = holder.shared.replicas.lock().unwrap();
        replicas
            .get(token)
            .map(|r| serde_json::to_string(r).unwrap())
    }

    /// What the reactor does with the outbox a request left in `conn`,
    /// with `holder`'s receipt handler standing in for the peer link:
    /// every ship is answered in order over one authorized peer
    /// connection, runs draw their sequences as a link draws them, a
    /// refused step is answered with the whole record `conn` holds, and
    /// every answer is settled — and counted — as the reactor settles it.
    fn deliver(conn: &mut ConnState, owner: &Shared, holder: &Shared) {
        let mut link = crate::peer::PeerLink::new(String::new(), 0);
        let mut inbound = ConnState::new();
        inbound.peer = true;
        for (_, mut request) in std::mem::take(&mut conn.outbox) {
            if let Request::PeerShipRun { seq, .. } = &mut request {
                *seq = link.next_run_seq();
            }
            let mut ship = crate::peer::Ship::new(request, None, None);
            loop {
                let answer = handle_request(ship.request().clone(), &mut inbound, holder);
                if ship.settle(Some(&answer)) {
                    break;
                }
                let record = resync_ship(owner, conn).expect("a stepped session has a record");
                ship = ship.resync(record);
            }
        }
    }

    /// The step rule on the receiving side: the next entry is appended,
    /// a second delivery of the last one changes nothing, and anything
    /// that does not continue the trace held is refused.
    #[test]
    fn a_replica_applies_steps_in_order_and_refuses_the_rest() {
        let (owner, holder) = ring_pair(Duration::from_secs(30));
        let origin = owner.addr().to_string();
        let mut link = peer_link(&holder, &origin);
        let record = SessionRecord {
            token: Some("hs-step-0".into()),
            engine: None,
            space: parse_rsl(RSL).unwrap(),
            budget: 10,
            trace: Vec::new(),
            label: "stepped".into(),
            characteristics: vec![0.5],
            prior: None,
            next_seq: 0,
        };
        let full = Request::PeerShipSession {
            origin: origin.clone(),
            session: serde_json::to_string(&record).unwrap(),
        };
        let step = |token: &str, iteration: usize| Request::PeerShipStep {
            token: token.into(),
            iteration,
            next_seq: iteration as u64 + 1,
            values: vec![iteration as i64, 7],
            performance: 0.5 * iteration as f64,
        };
        let held = |holder: &DaemonHandle| {
            let replicas = holder.shared.replicas.lock().unwrap();
            replicas
                .get("hs-step-0")
                .map(|r| (r.trace.len(), r.next_seq))
        };
        let refused = |response: Response| matches!(response, Response::Error { .. });

        assert!(refused(peer_exchange(&mut link, &step("hs-step-0", 0))));
        assert_eq!(held(&holder), None, "a step never creates a replica");
        assert_eq!(peer_exchange(&mut link, &full), Response::PeerOk);
        for i in 0..3 {
            assert_eq!(
                peer_exchange(&mut link, &step("hs-step-0", i)),
                Response::PeerOk
            );
            assert_eq!(held(&holder), Some((i + 1, i as u64 + 1)));
        }
        // The retried delivery of the last step: acknowledged, not applied.
        assert_eq!(
            peer_exchange(&mut link, &step("hs-step-0", 2)),
            Response::PeerOk
        );
        assert_eq!(held(&holder), Some((3, 3)));
        // Same position, different observation: not a retry.
        let other = Request::PeerShipStep {
            token: "hs-step-0".into(),
            iteration: 2,
            next_seq: 3,
            values: vec![2, 8],
            performance: 1.0,
        };
        assert!(refused(peer_exchange(&mut link, &other)));
        // A gap ahead, a step from the past, an unknown token.
        assert!(refused(peer_exchange(&mut link, &step("hs-step-0", 4))));
        assert!(refused(peer_exchange(&mut link, &step("hs-step-0", 1))));
        assert!(refused(peer_exchange(&mut link, &step("hs-other-0", 0))));
        assert_eq!(
            held(&holder),
            Some((3, 3)),
            "a refused step applies nothing"
        );
        // The session ended: its next step finds nothing to continue.
        let ended = Request::PeerDropSession {
            origin,
            token: "hs-step-0".into(),
        };
        assert_eq!(peer_exchange(&mut link, &ended), Response::PeerOk);
        assert!(refused(peer_exchange(&mut link, &step("hs-step-0", 3))));
        assert_eq!(held(&holder), None);
        owner.shutdown();
        holder.shutdown();
    }

    /// The sending side of a refusal: whatever put the replica out of
    /// step — an entry it lost, the whole record gone, the session
    /// dropped — the `Report` that finds out leaves it equal to the
    /// owner's record again, and counts a resynchronisation, not a
    /// failed ship.
    #[test]
    fn a_refused_step_resynchronises_the_replica_without_a_ship_failure() {
        let (owner, holder) = ring_pair(Duration::from_secs(30));
        let mut conn = ConnState::new();
        conn.version = 2;
        let start = Request::SessionStart {
            space: SpaceSpec::Rsl(RSL.into()),
            label: "resync".into(),
            characteristics: vec![0.5],
            max_iterations: Some(20),
            engine: None,
        };
        let token = match handle_request(start, &mut conn, &owner.shared) {
            Response::SessionStarted { session_token, .. } => session_token.unwrap(),
            other => panic!("expected SessionStarted, got {other:?}"),
        };
        deliver(&mut conn, &owner.shared, &holder.shared);
        let mut seq = 0;
        let mut report = |conn: &mut ConnState| {
            let fetched = handle_request(Request::Fetch, conn, &owner.shared);
            assert!(matches!(fetched, Response::Config { .. }), "{fetched:?}");
            let report = Request::Report {
                performance: seq as f64,
                seq: Some(seq),
            };
            seq += 1;
            assert_eq!(
                handle_request(report, conn, &owner.shared),
                Response::Reported
            );
            deliver(conn, &owner.shared, &holder.shared);
        };
        let in_step = |conn: &ConnState| {
            let owned = serde_json::to_string(&conn.active.as_ref().unwrap().record).unwrap();
            assert_eq!(replica_text(&holder, &token), Some(owned));
        };
        in_step(&conn);
        report(&mut conn);
        report(&mut conn);
        in_step(&conn);
        let failures = crate::obs::peer_ship_failures_total().get();
        let resyncs = crate::obs::peer_session_resyncs_total().get();
        let sabotage: [&dyn Fn(&mut ConnState); 3] = [
            &|_| {
                let mut replicas = holder.shared.replicas.lock().unwrap();
                replicas.get_mut(&token).unwrap().trace.pop();
            },
            &|_| holder.shared.drop_replica(&token),
            &|conn| {
                owner.shared.retire(&token, &mut conn.outbox);
                deliver(conn, &owner.shared, &holder.shared);
            },
        ];
        for (i, put_out_of_step) in sabotage.iter().enumerate() {
            put_out_of_step(&mut conn);
            report(&mut conn);
            in_step(&conn);
            assert!(crate::obs::peer_session_resyncs_total().get() > resyncs + i as u64);
        }
        // And the steps after a resynchronisation apply again.
        report(&mut conn);
        in_step(&conn);
        assert_eq!(crate::obs::peer_ship_failures_total().get(), failures);
        owner.shutdown();
        holder.shutdown();
    }

    /// A run that fails to decode was never looked at: its
    /// `(origin, seq)` is still free for the well-formed ship.
    #[test]
    fn a_malformed_shipped_run_does_not_consume_its_sequence() {
        let (owner, holder) = ring_pair(Duration::from_secs(30));
        let origin = owner.addr().to_string();
        let ship = Request::PeerShipRun {
            origin: origin.clone(),
            seq: 5,
            run: run_at("shipped", 0.5),
        };
        let whole = crate::wire::to_bytes(&ship);
        // Framed as promised, but the run stops short of its last record.
        let cut = &whole[..whole.len() - 4];
        let mut link = peer_link(&holder, &origin);
        std::io::Write::write_all(&mut link, &(cut.len() as u32).to_be_bytes()).unwrap();
        std::io::Write::write_all(&mut link, cut).unwrap();
        let mut buf = Vec::new();
        let answer: Response =
            crate::codec::read_frame_buf_as(&mut link, WireFormat::Binary, &mut buf).unwrap();
        assert!(matches!(answer, Response::Error { .. }), "{answer:?}");
        assert_eq!(holder.db_runs(), 0);
        // Nor does a run the journal could not hold: it is refused whole.
        let mut link = peer_link(&holder, &origin);
        let mut unstorable = RunHistory::new("nan", vec![0.5, 0.0]);
        unstorable.push(&Configuration::new(vec![1, 2]), f64::NAN);
        let refused = Request::PeerShipRun {
            origin: origin.clone(),
            seq: 5,
            run: Arc::new(unstorable),
        };
        let answer = peer_exchange(&mut link, &refused);
        assert!(matches!(answer, Response::Error { .. }), "{answer:?}");
        assert_eq!(holder.db_runs(), 0);
        assert_eq!(peer_exchange(&mut link, &ship), Response::PeerOk);
        assert_eq!(holder.db_runs(), 1, "the sequence was still unapplied");
        // Delivered again, it is the retry the sequence exists to drop.
        assert_eq!(peer_exchange(&mut link, &ship), Response::PeerOk);
        assert_eq!(holder.db_runs(), 1);
        owner.shutdown();
        holder.shutdown();
    }

    /// A session the reaper expires is over: its successor must not
    /// keep a replica a later `Resume` could adopt — whether or not
    /// anything was measured.
    #[test]
    fn an_expired_session_retires_its_replicas() {
        let (owner, holder) = ring_pair(Duration::from_millis(50));
        for evaluations in [0, 3] {
            let mut client = Client::connect(owner.addr()).unwrap();
            client
                .start_session(SpaceSpec::Rsl(RSL.into()), "ttl", vec![0.2], Some(20))
                .unwrap();
            let token = client.session_token().unwrap().to_string();
            for _ in 0..evaluations {
                let p = client.fetch().unwrap().unwrap();
                client.report(paraboloid(&p.values)).unwrap();
            }
            assert!(replica_text(&holder, &token).is_some());
            drop(client);
            for _ in 0..200 {
                if replica_text(&holder, &token).is_none() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            assert_eq!(
                replica_text(&holder, &token),
                None,
                "{evaluations} evaluations"
            );
        }
        assert_eq!(owner.db_runs(), 1, "only the measured session is a run");
        owner.shutdown();
        holder.shutdown();
    }

    /// `SessionStart` with an engine name runs that registry engine
    /// over the wire; an unknown name is refused with the registry's
    /// error message.
    #[test]
    fn engine_sessions_tune_over_the_wire() {
        let handle = daemon();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_frame(
            &mut stream,
            &Request::Hello {
                version: None,
                min_version: Some(2),
                max_version: Some(2),
                client: "test".into(),
            },
        )
        .unwrap();
        crate::codec::read_frame::<_, Response>(&mut stream).unwrap();
        write_frame(
            &mut stream,
            &Request::SessionStart {
                space: SpaceSpec::Rsl(RSL.into()),
                label: "engined".into(),
                characteristics: vec![0.5, 0.5],
                max_iterations: Some(20),
                engine: Some("annealing".into()),
            },
        )
        .unwrap();
        match crate::codec::read_frame(&mut stream).unwrap() {
            Response::Error { message } => assert!(message.contains("unknown engine"), "{message}"),
            other => panic!("unknown engine must be refused, got {other:?}"),
        }
        write_frame(
            &mut stream,
            &Request::SessionStart {
                space: SpaceSpec::Rsl(RSL.into()),
                label: "engined".into(),
                characteristics: vec![0.5, 0.5],
                max_iterations: Some(20),
                engine: Some("divide-diverge".into()),
            },
        )
        .unwrap();
        match crate::codec::read_frame(&mut stream).unwrap() {
            Response::SessionStarted { session_token, .. } => {
                assert!(session_token.is_some(), "v2 still issues a token")
            }
            other => panic!("expected SessionStarted, got {other:?}"),
        }
        let mut iterations = 0usize;
        loop {
            write_frame(&mut stream, &Request::Fetch).unwrap();
            match crate::codec::read_frame(&mut stream).unwrap() {
                Response::Config { values, .. } => {
                    let x = values[0] as f64;
                    let y = values[1] as f64;
                    write_frame(
                        &mut stream,
                        &Request::Report {
                            performance: 1000.0 - (x - 40.0).powi(2) - (y - 70.0).powi(2),
                            seq: Some(iterations as u64),
                        },
                    )
                    .unwrap();
                    assert!(matches!(
                        crate::codec::read_frame(&mut stream).unwrap(),
                        Response::Reported
                    ));
                    iterations += 1;
                }
                Response::Done => break,
                other => panic!("expected Config or Done, got {other:?}"),
            }
        }
        assert!(iterations > 0 && iterations <= 20);
        write_frame(&mut stream, &Request::SessionEnd).unwrap();
        match crate::codec::read_frame(&mut stream).unwrap() {
            Response::SessionSummary {
                iterations: done, ..
            } => assert_eq!(done, iterations),
            other => panic!("expected SessionSummary, got {other:?}"),
        }
        drop(stream);
        assert_eq!(handle.db_runs(), 1, "engine sessions record experience");
        handle.shutdown();
    }

    /// Drive a session built from `record` to its end through the request
    /// handlers, returning its trajectory, training count and summary.
    /// With a cut `(k, fetched)` the owner dies after `k` observations —
    /// and one more `Fetch`, if `fetched` — leaving only the record's
    /// JSON, from which a rebuilt session takes over.
    fn run_session(
        record: SessionRecord,
        shared: &Shared,
        perf: &dyn Fn(&[i64]) -> f64,
        mut cut: Option<(usize, bool)>,
    ) -> (Vec<(Vec<i64>, u64)>, usize, String) {
        let attach = |sess: Option<ActiveSession>| {
            let mut conn = ConnState::new();
            conn.version = 2;
            conn.active = sess;
            conn
        };
        let fetch = |conn: &mut ConnState| match handle_request(Request::Fetch, conn, shared) {
            Response::Config { values, .. } => Some(values),
            Response::Done => None,
            other => panic!("expected Config or Done, got {other:?}"),
        };
        let snapshot = |conn: &ConnState| {
            serde_json::to_string(&conn.active.as_ref().unwrap().record).unwrap()
        };
        let mut conn = attach(Some(build_session(record, &shared.config).unwrap()));
        let training = conn.active.as_ref().unwrap().engine.training_iterations();
        let mut trajectory = Vec::new();
        // The proposal a client cut between `Fetch` and `Report` still
        // holds: it reports on it without fetching again.
        let mut owed = None;
        loop {
            if let Some((k, fetched)) = cut.filter(|(k, _)| *k == trajectory.len()) {
                cut = None;
                let text = snapshot(&conn);
                if fetched {
                    owed = fetch(&mut conn);
                    assert_eq!(snapshot(&conn), text, "a Fetch changes nothing persisted");
                }
                let done = conn.active.take().unwrap().engine.is_done();
                let (_, revived) = serde_json::from_str::<SessionRecord>(&text)
                    .map_err(|e| e.to_string())
                    .and_then(SessionRecord::tokened)
                    .unwrap();
                let sess = build_session(revived, &shared.config).unwrap();
                assert_eq!(sess.engine.training_iterations(), training);
                conn = attach(None);
                assert_eq!(
                    resume(&mut conn.active, sess, "net.session_adopted"),
                    Response::Resumed {
                        iteration: k,
                        next_seq: k as u64,
                        done,
                    }
                );
            }
            let Some(values) = owed.take().or_else(|| fetch(&mut conn)) else {
                break;
            };
            let performance = perf(&values);
            let report = Request::Report {
                performance,
                seq: Some(trajectory.len() as u64),
            };
            assert_eq!(
                handle_request(report, &mut conn, shared),
                Response::Reported
            );
            trajectory.push((values, performance.to_bits()));
        }
        let recorded = &conn.active.as_ref().unwrap().record.trace;
        assert!(recorded
            .iter()
            .map(|t| t.config.values())
            .eq(trajectory.iter().map(|(v, _)| &v[..])));
        // Debug prints the shortest text that round-trips, so equal
        // strings mean equal bits.
        let summary = format!(
            "{:?}",
            handle_request(Request::SessionEnd, &mut conn, shared)
        );
        (trajectory, training, summary)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The one persisted shape loses nothing: cut a session after any
        /// number of observations — before the next `Fetch`, or between
        /// `Fetch` and `Report` — and the rebuilt session's trajectory,
        /// sequence numbers, training count and summary are those of the
        /// session that was never interrupted. Every kernel, cold and
        /// warm-started.
        #[test]
        fn replay_equals_live_at_every_cut(
            ox in 0i64..=100,
            oy in 0i64..=100,
            budget in 5usize..=14,
        ) {
            let handle = daemon();
            let perf = |v: &[i64]| 1000.0 - ((v[0] - ox) as f64).powi(2) - ((v[1] - oy) as f64).powi(2);
            let mut prior = RunHistory::new("prior", vec![0.5]);
            for (x, y) in [(10, 10), (30, 80), (50, 50), (70, 20), (90, 90), (40, 60), (45, 55)] {
                prior.push(&Configuration::new(vec![x, y]), perf(&[x + 7, y - 5]));
            }
            let kernels = std::iter::once(None).chain(engines::ENGINE_NAMES.map(Some));
            for (engine, prior) in kernels.flat_map(|k| [(k, None), (k, Some(prior.clone()))]) {
                let run = |cut| run_session(
                    SessionRecord {
                        token: Some("hs-cut-0".into()),
                        engine: engine.map(str::to_string),
                        space: parse_rsl(RSL).unwrap(),
                        budget,
                        trace: Vec::new(),
                        label: "cut".into(),
                        characteristics: vec![0.5],
                        prior: prior.clone(),
                        next_seq: 0,
                    },
                    &handle.shared,
                    &perf,
                    cut,
                );
                let live = run(None);
                if engine.is_none() {
                    // The default kernel is the local tuner, step for step.
                    let config = &handle.shared.config;
                    let options = config.tuning.clone().with_max_iterations(budget);
                    let tuner = harmony::tuner::Tuner::new(parse_rsl(RSL).unwrap(), options);
                    let mut local = match &prior {
                        Some(run) => tuner.session_trained(run, TRAINING),
                        None => tuner.session(),
                    };
                    let mut expected = Vec::new();
                    while let Some(cfg) = local.next_config() {
                        let p = perf(cfg.values());
                        local.observe(p).unwrap();
                        expected.push((cfg.values().to_vec(), p.to_bits()));
                    }
                    prop_assert_eq!(&live.0, &expected, "warm={}", prior.is_some());
                    prop_assert_eq!(live.1, local.training_iterations());
                }
                let trains = prior.is_some() && matches!(engine, None | Some("simplex"));
                prop_assert_eq!(live.1 > 0, trains, "{:?}", engine);
                prop_assert!(!live.0.is_empty() && live.0.len() <= budget, "{:?}", engine);
                for k in 0..=live.0.len() {
                    for fetched in [false, true] {
                        prop_assert_eq!(
                            &run(Some((k, fetched))), &live,
                            "{:?} warm={} cut at {} fetched={}", engine, prior.is_some(), k, fetched
                        );
                    }
                }
            }
            handle.shutdown();
        }

        /// What the ring keeps of a session is what its owner holds: the
        /// record shipped whole at `SessionStart` plus one step per
        /// `Report` is, after every step, byte for byte the owner's
        /// record, and a session rebuilt from it proposes what the owner
        /// proposes next. Every kernel, cold and warm-started.
        #[test]
        fn a_stepped_replica_equals_its_owner_after_every_report(
            ox in 0i64..=100,
            oy in 0i64..=100,
            budget in 3usize..=12,
        ) {
            let (owner, holder) = ring_pair(Duration::from_secs(30));
            let perf = |v: &[i64]| 1000.0 - ((v[0] - ox) as f64).powi(2) - ((v[1] - oy) as f64).powi(2);
            let kernels = || std::iter::once(None).chain(engines::ENGINE_NAMES.map(Some));
            let mut prior = RunHistory::new("prior", vec![0.5]);
            for (x, y) in [(10, 10), (30, 80), (50, 50), (70, 20), (90, 90)] {
                prior.push(&Configuration::new(vec![x, y]), perf(&[x + 7, y - 5]));
            }
            owner.shared.record_run(Arc::new(prior));
            let sessions = [false, true].into_iter().flat_map(|w| kernels().map(move |k| (w, k)));
            for (nth, (warm, engine)) in sessions.enumerate() {
                // A cold session's characteristics match no run: not the
                // prior at 0.5, not an earlier session's at its own.
                let characteristics = if warm { 0.5 } else { 10.0 * (nth + 1) as f64 };
                let mut conn = ConnState::new();
                conn.version = 2;
                let start = Request::SessionStart {
                    space: SpaceSpec::Rsl(RSL.into()),
                    label: "stepped".into(),
                    characteristics: vec![characteristics],
                    max_iterations: Some(budget),
                    engine: engine.map(str::to_string),
                };
                let token = match handle_request(start, &mut conn, &owner.shared) {
                    Response::SessionStarted { session_token, trained_from, .. } => {
                        prop_assert_eq!(trained_from.is_some(), warm);
                        session_token.unwrap()
                    }
                    other => panic!("expected SessionStarted, got {other:?}"),
                };
                deliver(&mut conn, &owner.shared, &holder.shared);
                for seq in 0.. {
                    let owned = serde_json::to_string(&conn.active.as_ref().unwrap().record).unwrap();
                    let replica = replica_text(&holder, &token);
                    prop_assert_eq!(replica.as_ref(), Some(&owned), "{:?} warm={} step {}", engine, warm, seq);
                    let rebuilt = serde_json::from_str::<SessionRecord>(&replica.unwrap()).unwrap();
                    let mut rebuilt = build_session(rebuilt, &holder.shared.config).unwrap();
                    let proposed = rebuilt.next_config().map(|c| c.values().to_vec());
                    let values = match handle_request(Request::Fetch, &mut conn, &owner.shared) {
                        Response::Config { values, .. } => Some(values),
                        Response::Done => None,
                        other => panic!("expected Config or Done, got {other:?}"),
                    };
                    prop_assert_eq!(&proposed, &values, "{:?} warm={} step {}", engine, warm, seq);
                    let Some(values) = values else { break };
                    let report = Request::Report { performance: perf(&values), seq: Some(seq) };
                    prop_assert_eq!(handle_request(report, &mut conn, &owner.shared), Response::Reported);
                    deliver(&mut conn, &owner.shared, &holder.shared);
                }
                handle_request(Request::SessionEnd, &mut conn, &owner.shared);
                deliver(&mut conn, &owner.shared, &holder.shared);
                prop_assert_eq!(replica_text(&holder, &token), None, "an ended session keeps no replica");
            }
            owner.shutdown();
            holder.shutdown();
        }
    }

    /// The builder refuses the combinations the CLI used to police by
    /// hand, and passes cluster configs through ring validation.
    #[test]
    fn config_builder_validates_combinations() {
        let err = DaemonConfig::builder()
            .wal_path("/tmp/x.wal")
            .build()
            .unwrap_err();
        assert!(err.contains("--wal requires --db"), "{err}");

        let err = DaemonConfig::builder()
            .compact_every(8)
            .build()
            .unwrap_err();
        assert!(err.contains("--compact-every requires --db"), "{err}");

        let err = DaemonConfig::builder()
            .max_connections(0)
            .build()
            .unwrap_err();
        assert!(
            err.contains("--max-connections must be at least 1"),
            "{err}"
        );

        // With a db both are fine.
        let config = DaemonConfig::builder()
            .db_path("/tmp/x.json")
            .wal_path("/tmp/x.wal")
            .compact_every(8)
            .build()
            .unwrap();
        assert_eq!(config.compact_every, 8);

        let err = DaemonConfig::builder()
            .cluster("a:1", vec!["a:1".into()], 1)
            .build()
            .unwrap_err();
        assert!(err.contains("own address"), "{err}");

        let err = DaemonConfig::builder()
            .cluster("a:1", vec!["b:1".into()], 3)
            .build()
            .unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }
}
