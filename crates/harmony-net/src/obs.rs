//! Daemon-side metric handles, registered in the process-global
//! [`harmony_obs`] registry.
//!
//! [`preregister`] touches every handle at daemon startup so a `Stats`
//! request on a freshly started daemon already exposes the full metric
//! set (lazily registered series would otherwise be invisible until
//! first use).
//!
//! Metric names exported here:
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `harmony_net_connections_total` | counter | connections accepted |
//! | `harmony_net_connections_active` | gauge | connections currently being served |
//! | `harmony_net_connections_refused_total` | counter | connections turned away at the cap |
//! | `harmony_net_requests_total{type=…}` | counter | requests served, by message type |
//! | `harmony_net_request_seconds{type=…}` | histogram | request handling latency, by message type |
//! | `harmony_net_errors_total` | counter | in-protocol `Error` responses sent, plus requests that panicked |
//! | `harmony_net_sessions_started_total` | counter | sessions opened via `SessionStart` |
//! | `harmony_net_sessions_completed_total` | counter | sessions closed via `SessionEnd` |
//! | `harmony_net_sessions_abandoned_total` | counter | sessions whose connection dropped mid-tune |
//! | `harmony_net_warm_start_total{result=…}` | counter | `SessionStart` classification hits/misses |
//! | `harmony_net_db_runs` | gauge | runs currently in the shared experience db |
//! | `harmony_net_db_persist_failures_total` | counter | failed experience-db persistence attempts |
//! | `harmony_net_db_snapshot_swaps_total` | counter | copy-on-write database snapshot swaps |
//! | `harmony_net_retries_total` | counter | client-side request retries (backoff loop) |
//! | `harmony_net_resumes_total` | counter | parked sessions re-attached via `Resume` |
//! | `harmony_net_draining_responses_total` | counter | requests refused with `Draining` during shutdown |
//! | `harmony_net_sessions_parked` | gauge | disconnected sessions currently parked awaiting `Resume` |
//! | `harmony_net_session_ttl_expirations_total` | counter | parked sessions reaped at the keepalive TTL |
//! | `harmony_net_traces_finalized_total` | counter | trace span trees sealed into the flight recorder |
//! | `harmony_net_reactor_wakeups_total` | counter | reactor event-loop wakeups (poller waits returning) |
//! | `harmony_net_reactor_ready_events_depth` | histogram | descriptors ready per event-loop wakeup |
//! | `harmony_net_reactor_pipelined_requests_total` | counter | requests decoded while an earlier one on the same connection was still queued or executing |
//! | `harmony_net_reactor_fds_active` | gauge | connections currently registered with the reactor |
//! | `harmony_net_frames_binary_total` | counter | frames encoded in the protocol-v3 binary format |
//! | `harmony_net_frame_bytes_total{format=…}` | counter | payload bytes encoded, by wire format (the json − binary gap is the bytes saved) |
//! | `harmony_net_peer_connections_total` | counter | inbound peer links authorized via `PeerHello` |
//! | `harmony_net_peer_runs_shipped_total` | counter | recorded runs shipped to replica peers |
//! | `harmony_net_peer_sessions_shipped_total` | counter | session mutations replicated to peers (a step per `Report`, a full record at start or resync) |
//! | `harmony_net_peer_session_resyncs_total` | counter | full session records shipped because a replica refused a step |
//! | `harmony_net_peer_ship_failures_total` | counter | peer ships that failed (peer down or refusing) |
//! | `harmony_net_shard_adoptions_total` | counter | replicated sessions adopted after their owner died |
//! | `harmony_net_shard_redirects_total` | counter | `Resume` requests redirected with `NotMine` |
//! | `harmony_net_shard_replica_sessions_entries` | gauge | replicated session records currently held for peers |
//!
//! The harmony crate's WAL metrics (`harmony_db_wal_appends_total`,
//! `harmony_db_wal_flush_seconds`, `harmony_db_compactions_total`) share
//! the same registry and are preregistered here too, so a `Stats`
//! request sees the whole experience-path set from startup.

use crate::protocol::Request;
use harmony_obs::metrics::{global, Counter, Gauge, Histogram, LATENCY_SECONDS};
use std::sync::{Arc, OnceLock};

macro_rules! handle {
    ($fn_name:ident, $kind:ty, $init:expr) => {
        pub(crate) fn $fn_name() -> &'static Arc<$kind> {
            static H: OnceLock<Arc<$kind>> = OnceLock::new();
            H.get_or_init(|| $init)
        }
    };
}

handle!(
    connections_total,
    Counter,
    global().counter(
        "harmony_net_connections_total",
        "Connections accepted by the daemon.",
    )
);

handle!(
    connections_active,
    Gauge,
    global().gauge(
        "harmony_net_connections_active",
        "Connections currently being served.",
    )
);

handle!(
    connections_refused_total,
    Counter,
    global().counter(
        "harmony_net_connections_refused_total",
        "Connections refused at the concurrent-connection cap.",
    )
);

handle!(
    errors_total,
    Counter,
    global().counter(
        "harmony_net_errors_total",
        "In-protocol Error responses sent to clients, plus requests that panicked.",
    )
);

handle!(
    sessions_started_total,
    Counter,
    global().counter(
        "harmony_net_sessions_started_total",
        "Tuning sessions opened via SessionStart.",
    )
);

handle!(
    sessions_completed_total,
    Counter,
    global().counter(
        "harmony_net_sessions_completed_total",
        "Tuning sessions closed cleanly via SessionEnd.",
    )
);

handle!(
    sessions_abandoned_total,
    Counter,
    global().counter(
        "harmony_net_sessions_abandoned_total",
        "Sessions whose connection dropped before SessionEnd (measured work is still recorded).",
    )
);

handle!(
    warm_start_hits_total,
    Counter,
    global().counter_with(
        "harmony_net_warm_start_total",
        "SessionStart classifications against the experience db, by outcome.",
        &[("result", "hit")],
    )
);

handle!(
    warm_start_misses_total,
    Counter,
    global().counter_with(
        "harmony_net_warm_start_total",
        "SessionStart classifications against the experience db, by outcome.",
        &[("result", "miss")],
    )
);

handle!(
    db_runs,
    Gauge,
    global().gauge(
        "harmony_net_db_runs",
        "Runs currently held in the shared experience database.",
    )
);

handle!(
    db_persist_failures_total,
    Counter,
    global().counter(
        "harmony_net_db_persist_failures_total",
        "Failed attempts to persist the experience database.",
    )
);

handle!(
    db_snapshot_swaps_total,
    Counter,
    global().counter(
        "harmony_net_db_snapshot_swaps_total",
        "Copy-on-write experience-database snapshot swaps.",
    )
);

handle!(
    retries_total,
    Counter,
    global().counter(
        "harmony_net_retries_total",
        "Client-side request retries taken by the backoff loop.",
    )
);

handle!(
    resumes_total,
    Counter,
    global().counter(
        "harmony_net_resumes_total",
        "Parked sessions re-attached to a connection via Resume.",
    )
);

handle!(
    draining_responses_total,
    Counter,
    global().counter(
        "harmony_net_draining_responses_total",
        "Requests refused with a Draining response during shutdown.",
    )
);

handle!(
    sessions_parked,
    Gauge,
    global().gauge(
        "harmony_net_sessions_parked",
        "Disconnected sessions currently parked awaiting Resume.",
    )
);

handle!(
    session_ttl_expirations_total,
    Counter,
    global().counter(
        "harmony_net_session_ttl_expirations_total",
        "Parked sessions reaped after the keepalive TTL expired.",
    )
);

handle!(
    traces_finalized_total,
    Counter,
    global().counter(
        "harmony_net_traces_finalized_total",
        "Trace span trees sealed into the flight recorder.",
    )
);

/// Bucket bounds for the ready-events-per-wakeup histogram: event
/// counts, not seconds, so the latency buckets don't fit.
const READY_EVENTS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0];

handle!(
    reactor_wakeups_total,
    Counter,
    global().counter(
        "harmony_net_reactor_wakeups_total",
        "Reactor event-loop wakeups (poller waits returning).",
    )
);

handle!(
    reactor_ready_events_depth,
    Histogram,
    global().histogram(
        "harmony_net_reactor_ready_events_depth",
        "Descriptors reported ready per event-loop wakeup.",
        READY_EVENTS,
    )
);

handle!(
    reactor_pipelined_requests_total,
    Counter,
    global().counter(
        "harmony_net_reactor_pipelined_requests_total",
        "Requests decoded while an earlier request on the same connection was still queued or executing.",
    )
);

handle!(
    reactor_fds_active,
    Gauge,
    global().gauge(
        "harmony_net_reactor_fds_active",
        "Connections currently registered with the reactor.",
    )
);

handle!(
    frames_binary_total,
    Counter,
    global().counter(
        "harmony_net_frames_binary_total",
        "Frames encoded in the protocol-v3 binary format.",
    )
);

handle!(
    frame_bytes_json_total,
    Counter,
    global().counter_with(
        "harmony_net_frame_bytes_total",
        "Payload bytes encoded, by wire format.",
        &[("format", "json")],
    )
);

handle!(
    frame_bytes_binary_total,
    Counter,
    global().counter_with(
        "harmony_net_frame_bytes_total",
        "Payload bytes encoded, by wire format.",
        &[("format", "binary")],
    )
);

handle!(
    peer_connections_total,
    Counter,
    global().counter(
        "harmony_net_peer_connections_total",
        "Inbound peer links authorized via PeerHello.",
    )
);

handle!(
    peer_runs_shipped_total,
    Counter,
    global().counter(
        "harmony_net_peer_runs_shipped_total",
        "Recorded runs shipped to replica peers.",
    )
);

handle!(
    peer_sessions_shipped_total,
    Counter,
    global().counter(
        "harmony_net_peer_sessions_shipped_total",
        "Session mutations replicated to peers: one step per Report, one full record per start or resync.",
    )
);

handle!(
    peer_session_resyncs_total,
    Counter,
    global().counter(
        "harmony_net_peer_session_resyncs_total",
        "Full session records shipped because a replica refused a step (it restarted, or missed one).",
    )
);

handle!(
    peer_ship_failures_total,
    Counter,
    global().counter(
        "harmony_net_peer_ship_failures_total",
        "Peer ships that failed (peer down or refusing); a session replica catches up when it refuses the next step.",
    )
);

handle!(
    shard_adoptions_total,
    Counter,
    global().counter(
        "harmony_net_shard_adoptions_total",
        "Replicated sessions adopted after their owner died.",
    )
);

handle!(
    shard_redirects_total,
    Counter,
    global().counter(
        "harmony_net_shard_redirects_total",
        "Resume requests redirected to the token's ring owner with NotMine.",
    )
);

handle!(
    shard_replica_sessions_entries,
    Gauge,
    global().gauge(
        "harmony_net_shard_replica_sessions_entries",
        "Replicated session records currently held on behalf of peers.",
    )
);

/// Per-request-type counter and latency histogram.
pub(crate) struct RequestMetrics {
    pub total: Arc<Counter>,
    pub seconds: Arc<Histogram>,
}

/// One counter and histogram per [`Request::kinds`], all built on first
/// use so every series exists before the first request of its kind.
pub(crate) fn request_metrics(kind: &'static str) -> &'static RequestMetrics {
    static H: OnceLock<Vec<(&'static str, RequestMetrics)>> = OnceLock::new();
    let all = H.get_or_init(|| {
        Request::kinds()
            .map(|k| {
                (
                    k,
                    RequestMetrics {
                        total: global().counter_with(
                            "harmony_net_requests_total",
                            "Requests served, by message type.",
                            &[("type", k)],
                        ),
                        seconds: global().histogram_with(
                            "harmony_net_request_seconds",
                            "Request handling latency (read to response written), by message type.",
                            LATENCY_SECONDS,
                            &[("type", k)],
                        ),
                    },
                )
            })
            .collect()
    });
    all.iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, m)| m)
        .expect("unknown request kind")
}

/// Touch every handle so the full metric set is registered (and thus
/// visible in a `Stats` exposition) from daemon startup.
pub(crate) fn preregister() {
    // Execution-engine metrics (batch counters, queue depth, memo-cache
    // hit/miss/eviction accounting) share the global registry; register
    // them too so `Stats` shows them as zeros before the first batch.
    harmony_exec::preregister();
    // Likewise the experience-path WAL/compaction metrics the harmony
    // crate emits from inside `history::wal`.
    harmony::preregister_db_metrics();
    // And the pluggable-engine series (per-engine proposal/evaluation
    // counters, convergence histogram, tournament races).
    harmony_engines::preregister();
    connections_total();
    connections_active();
    connections_refused_total();
    errors_total();
    sessions_started_total();
    sessions_completed_total();
    sessions_abandoned_total();
    warm_start_hits_total();
    warm_start_misses_total();
    db_runs();
    db_persist_failures_total();
    db_snapshot_swaps_total();
    retries_total();
    resumes_total();
    draining_responses_total();
    sessions_parked();
    session_ttl_expirations_total();
    traces_finalized_total();
    reactor_wakeups_total();
    reactor_ready_events_depth();
    reactor_pipelined_requests_total();
    reactor_fds_active();
    frames_binary_total();
    frame_bytes_json_total();
    frame_bytes_binary_total();
    peer_connections_total();
    peer_runs_shipped_total();
    peer_sessions_shipped_total();
    peer_session_resyncs_total();
    peer_ship_failures_total();
    shard_adoptions_total();
    shard_redirects_total();
    shard_replica_sessions_entries();
    for kind in Request::kinds() {
        request_metrics(kind);
    }
}
